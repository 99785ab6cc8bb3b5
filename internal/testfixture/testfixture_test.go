package testfixture

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// The package imports "testing" and trains models at call time; it is
// for tests only, so nothing a binary is built from may depend on it.
func TestNotLinkedIntoBinaries(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to list dependencies with")
	}
	out, err := exec.Command(goBin, "list", "-deps", "tcam/cmd/...", "tcam/examples/...").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "tcam/internal/index") {
		t.Fatalf("go list -deps does not even list internal/index:\n%s", out)
	}
	if slices.Contains(deps, "tcam/internal/testfixture") {
		t.Error("a binary under cmd/ or examples/ links internal/testfixture")
	}
}

// Serving's renamed items are the only difference from Bundle(6, 12).
func TestServingShape(t *testing.T) {
	b := Serving(t)
	if len(b.Users) != 6 || len(b.Items) != 12 || b.Grid.Num != 3 {
		t.Fatalf("serving bundle is %d users × %d intervals × %d items, want 6×3×12", len(b.Users), b.Grid.Num, len(b.Items))
	}
	if b.Users[5] != "user-5" || b.Items[3] != "item-3" || b.Items[4] != "c++" || b.Items[9] != "100%41" {
		t.Errorf("names: users %v items %v", b.Users, b.Items)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}
