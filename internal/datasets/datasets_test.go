package datasets

import (
	"math"
	"strings"
	"testing"

	"smiler/internal/timeseries"
)

func TestKindString(t *testing.T) {
	if Road.String() != "ROAD" || Mall.String() != "MALL" || Net.String() != "NET" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
	if Road.SamplesPerDay() != 144 || Net.SamplesPerDay() != 288 {
		t.Fatal("sample densities wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Kind: Road, Sensors: 2, Days: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Kind: Kind(9), Sensors: 1, Days: 1},
		{Kind: Road, Sensors: 0, Days: 1},
		{Kind: Road, Sensors: 1, Days: 0},
		{Kind: Road, Sensors: 1, Days: 1, Duplicates: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if _, err := Generate(bad[0]); err == nil {
		t.Fatal("Generate should validate")
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	cfg := Config{Kind: Road, Sensors: 3, Days: 2, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("got %d series", len(a))
	}
	wantLen := 2 * Road.SamplesPerDay()
	for _, s := range a {
		if s.Len() != wantLen {
			t.Fatalf("series %s has %d points, want %d", s.ID(), s.Len(), wantLen)
		}
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatal("ids not deterministic")
		}
		for j := 0; j < a[i].Len(); j++ {
			if a[i].At(j) != b[i].At(j) {
				t.Fatal("values not deterministic")
			}
		}
	}
	// Different sensors must differ.
	same := true
	for j := 0; j < a[0].Len(); j++ {
		if a[0].At(j) != a[1].At(j) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct sensors should have distinct series")
	}
}

func TestGenerateDuplicates(t *testing.T) {
	cfg := Config{Kind: Net, Sensors: 1, Duplicates: 4, Days: 1, Seed: 1}
	ss, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("got %d series, want 4", len(ss))
	}
	for _, s := range ss {
		if !strings.Contains(s.ID(), "#") {
			t.Fatalf("duplicate id %q missing suffix", s.ID())
		}
		for j := 0; j < s.Len(); j++ {
			if s.At(j) != ss[0].At(j) {
				t.Fatal("duplicates must be exact copies (paper's protocol)")
			}
		}
	}
}

func TestRoadBounded(t *testing.T) {
	ss, err := Generate(Config{Kind: Road, Sensors: 2, Days: 7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		for j := 0; j < s.Len(); j++ {
			v := s.At(j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("occupancy %v out of [0,1]", v)
			}
		}
	}
}

func TestMallNonNegativeAndSeasonal(t *testing.T) {
	ss, err := Generate(Config{Kind: Mall, Sensors: 1, Days: 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := ss[0]
	spd := Mall.SamplesPerDay()
	for j := 0; j < s.Len(); j++ {
		if s.At(j) < 0 {
			t.Fatalf("negative availability %v", s.At(j))
		}
	}
	// Availability at 3am should beat availability at 1pm (peak) on
	// average — the daily structure the semi-lazy search exploits.
	var night, noon float64
	days := s.Len() / spd
	for d := 0; d < days; d++ {
		night += s.At(d*spd + spd*3/24)
		noon += s.At(d*spd + spd*13/24)
	}
	if night <= noon {
		t.Fatalf("night availability (%v) should exceed peak-hour (%v)", night, noon)
	}
}

func TestNetPositiveAndDiurnal(t *testing.T) {
	ss, err := Generate(Config{Kind: Net, Sensors: 1, Days: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := ss[0]
	for j := 0; j < s.Len(); j++ {
		if s.At(j) <= 0 {
			t.Fatalf("non-positive traffic %v", s.At(j))
		}
	}
	// Autocorrelation at one day lag should be clearly positive for a
	// diurnal signal.
	norm, err := timeseries.NewNormalizer(s.Values())
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, s.Len())
	for j := range z {
		z[j] = norm.Apply(s.At(j))
	}
	lag := Net.SamplesPerDay()
	var acf float64
	n := 0
	for j := lag; j < len(z); j++ {
		acf += z[j] * z[j-lag]
		n++
	}
	acf /= float64(n)
	if acf < 0.4 {
		t.Fatalf("daily autocorrelation %v too weak for a diurnal corpus", acf)
	}
}
