package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServerLinksNoDevTooling pins what the server binary links: the
// benchmark harness, the distance-measure zoo, the accuracy metrics,
// the synthetic corpora and the other commands are dev tooling and stay
// out of the production binary.
func TestServerLinksNoDevTooling(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{
		"smiler/internal/bench":    true,
		"smiler/internal/tsdist":   true,
		"smiler/internal/metrics":  true,
		"smiler/internal/datasets": true,
	}
	for _, pkg := range strings.Fields(string(out)) {
		cmd := strings.HasPrefix(pkg, "smiler/cmd/") && pkg != "smiler/cmd/smiler-server"
		if banned[pkg] || cmd {
			t.Errorf("smiler-server links dev tooling %s", pkg)
		}
	}
}
