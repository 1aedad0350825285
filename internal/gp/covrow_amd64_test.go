package gp

import (
	"os"
	"strings"
	"testing"
)

// TestLanesOnWhereSupported requires the covariance lanes on every CPU
// with AVX2 and FMA, unless GODEBUG holds math.Exp off its FMA branch. A
// kernel that disagreed with math.Exp would fail its start-up probe and
// switch itself off, and every bit-equality test would then pass on the
// fallback alone.
func TestLanesOnWhereSupported(t *testing.T) {
	if detectLanes() && !useLanes && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("the CPU has AVX2 and FMA, but covLanes disagrees with math.Exp on the probe row")
	}
}
