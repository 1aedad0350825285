package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// levelsEqual requires two exported levels to hold the same shape, the
// same seeds and bit-equal planes and envelopes.
func levelsEqual(t *testing.T, what string, got, want *Level) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: level %v, want %v", what, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Omega != want.Omega || got.Rho != want.Rho || got.DMax != want.DMax || got.Synced != want.Synced {
		t.Fatalf("%s: shape %d/%d/%d synced %d, want %d/%d/%d synced %d", what,
			got.Omega, got.Rho, got.DMax, got.Synced, want.Omega, want.Rho, want.DMax, want.Synced)
	}
	bits := func(v float32) uint32 { return math.Float32bits(v) }
	flat := func(rows [][]float32) []float32 { return slices.Concat(rows...) }
	for _, p := range [][2][]float32{{flat(got.EQ), flat(want.EQ)}, {flat(got.EC), flat(want.EC)}, {got.EnvU, want.EnvU}, {got.EnvL, want.EnvL}} {
		if !slices.Equal(sliceMap(p[0], bits), sliceMap(p[1], bits)) {
			t.Fatalf("%s: window level differs", what)
		}
	}
	if len(got.EQ) != len(want.EQ) || len(got.EC) != len(want.EC) {
		t.Fatalf("%s: planes of %d and %d rows, want %d and %d", what, len(got.EQ), len(got.EC), len(want.EQ), len(want.EC))
	}
	if len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("%s: seeds for %d lengths, want %d", what, len(got.Seeds), len(want.Seeds))
	}
	for i, s := range want.Seeds {
		if got.Seeds[i].D != s.D || !slices.Equal(got.Seeds[i].T, s.T) {
			t.Fatalf("%s: seeds %+v, want %+v", what, got.Seeds[i], s)
		}
	}
}

// cloneLevel deep-copies a level: Index.Level's slices are the index's
// own, and InstallLevel keeps the slices it is given.
func cloneLevel(l *Level) *Level {
	c := *l
	c.EQ, c.EC = NewPlane(len(l.EQ), len(l.EQ[0])), NewPlane(len(l.EC), len(l.EC[0]))
	for b := range l.EQ {
		copy(c.EQ[b], l.EQ[b])
		copy(c.EC[b], l.EC[b])
	}
	c.EnvU, c.EnvL = slices.Clone(l.EnvU), slices.Clone(l.EnvL)
	c.Seeds = nil
	for _, s := range l.Seeds {
		c.Seeds = append(c.Seeds, Seeds{D: s.D, T: slices.Clone(s.T)})
	}
	return &c
}

func sliceMap[T, U any](in []T, f func(T) U) []U {
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// An index that installs another's exported level over the same history
// resumes it: across gaps on both sides of Sync's rebuild branch, and
// with ρ below and above ω, its searches return the same neighbours at
// the same cost as the index that never stopped, and its level after the
// search equals that index's.
func TestInstalledLevelResumesLikeHot(t *testing.T) {
	dev := testDevice(t)
	all := randwalk(rand.New(rand.NewSource(61)), 900)
	const k = 6
	horizons := [][]int{{1}, {1, 4}, {3}, {2, 6}}
	for _, p := range []Params{smallParams(), {Rho: 11, Omega: 8, ELV: []int{16, 40}}} {
		nSW := p.ELV[len(p.ELV)-1] - p.Omega + 1
		gaps := []int{0, 1, p.Rho, p.Omega + 1, nSW - p.Rho - 1, nSW - p.Rho, 0, nSW + 5, 2}
		hot, err := New(dev, all[:300], p)
		if err != nil {
			t.Fatal(err)
		}
		defer hot.Close()
		if hot.Level() != nil {
			t.Fatal("an index that never searched exports a level")
		}
		if _, err := hot.SearchMulti(k, []int{1}); err != nil {
			t.Fatal(err)
		}
		n := 300
		for step, m := range gaps {
			what := fmt.Sprintf("ρ=%d step %d m=%d", p.Rho, step, m)
			lvl := cloneLevel(hot.Level())
			for _, v := range all[n : n+m] {
				if err := hot.Advance(v); err != nil {
					t.Fatal(err)
				}
			}
			n += m
			resumed, err := New(dev, hot.History(), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.InstallLevel(lvl); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if m == 0 {
				levelsEqual(t, what+" installed", resumed.Level(), hot.Level())
			}
			hs := horizons[step%len(horizons)]
			got, err := resumed.SearchMulti(k, hs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hot.SearchMulti(k, hs)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, what, got, want)
			sameWork(t, what, resumed.Stats(), hot.Stats())
			if g, w := resumed.Stats(), hot.Stats(); g.CatchupSteps != w.CatchupSteps || g.Rebuilt != w.Rebuilt {
				t.Fatalf("%s: caught up %d steps rebuilt=%t, want %d rebuilt=%t", what, g.CatchupSteps, g.Rebuilt, w.CatchupSteps, w.Rebuilt)
			}
			levelsEqual(t, what+" after the search", resumed.Level(), hot.Level())
			resumed.Close()
		}
	}
}

// The context-pending disjoint windows a level leaves out are the ones
// a live index lists: after every Sync, over gaps of every size, with ρ
// zero, below ω and above it.
func TestCtxPendingWindowsDerived(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(62))
	all := randwalk(rng, 1200)
	for _, p := range []Params{
		{Rho: 0, Omega: 8, ELV: []int{16, 40}},
		smallParams(),
		{Rho: 8, Omega: 8, ELV: []int{16, 40}},
		{Rho: 19, Omega: 8, ELV: []int{16, 40}},
	} {
		ix, err := New(dev, all[:301], p)
		if err != nil {
			t.Fatal(err)
		}
		n := 301
		for n < 1100 {
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			if got, want := ix.ctxPendingWindows(), ix.dwCtxPending; !slices.Equal(got, want) {
				t.Fatalf("ρ=%d ω=%d at %d points: derived %v, live %v", p.Rho, p.Omega, n, got, want)
			}
			for range 1 + rng.Intn(40) {
				if err := ix.Advance(all[n]); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		ix.Close()
	}
}

// InstallLevel refuses a level the index could not have built, and a
// refused install leaves the index as New made it: not built, its first
// search a from-scratch build that answers like a fresh index.
func TestInstallLevelRefuses(t *testing.T) {
	dev := testDevice(t)
	all := randwalk(rand.New(rand.NewSource(63)), 400)
	p := smallParams()
	src, err := New(dev, all, p)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.SearchMulti(4, []int{1}); err != nil {
		t.Fatal(err)
	}
	good := cloneLevel(src.Level())
	cases := map[string]func(l *Level){
		"other ω":     func(l *Level) { l.Omega = 4 },
		"other ρ":     func(l *Level) { l.Rho = 2 },
		"other d_max": func(l *Level) { l.DMax = 32 },
		"seeds off the ELV": func(l *Level) {
			l.Seeds = append(l.Seeds, Seeds{D: 20})
			slices.SortFunc(l.Seeds, func(a, b Seeds) int { return a.D - b.D })
		},
		"short plane":         func(l *Level) { l.EC = l.EC[:len(l.EC)-1] },
		"short row":           func(l *Level) { l.EQ[3] = l.EQ[3][:len(l.EQ[3])-1] },
		"synced past history": func(l *Level) { l.Synced = len(all) + 1 },
		"NaN bound":           func(l *Level) { l.EQ[7][1] = float32(math.NaN()) },
	}
	for name, spoil := range cases {
		bad := cloneLevel(src.Level())
		spoil(bad)
		ix, err := New(dev, all, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InstallLevel(bad); err == nil {
			t.Fatalf("%s: installed", name)
		}
		if ix.Level() != nil {
			t.Fatalf("%s: a refused install left a level", name)
		}
		if _, err := ix.SearchMulti(4, []int{1}); err != nil {
			t.Fatal(err)
		}
		if st := ix.Stats(); !st.Rebuilt {
			t.Fatalf("%s: the first search after a refused install did not build", name)
		}
		if err := ix.InstallLevel(good); err == nil {
			t.Fatalf("%s: installed over a built window level", name)
		}
		ix.Close()
	}
	if err := src.InstallLevel(good); err == nil {
		t.Fatal("installed over a built window level")
	}
}
