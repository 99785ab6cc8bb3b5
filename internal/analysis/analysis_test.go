package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// finding identifies a diagnostic by fixture line and check name; column
// and message wording are implementation detail the fixtures don't pin.
type finding struct {
	line  int
	check string
}

func (f finding) String() string { return fmt.Sprintf("line %d: %s", f.line, f.check) }

var wantMarker = regexp.MustCompile(`// want ([a-z]+)\s*$`)

// expectedFindings scans a fixture directory for `// want <check>`
// line markers.
func expectedFindings(t *testing.T, dir string) map[finding]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[finding]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantMarker.FindStringSubmatch(line); m != nil {
				want[finding{line: i + 1, check: m[1]}] = true
			}
		}
	}
	return want
}

// runFixture loads testdata/src/<name> and applies one analyzer,
// comparing the (line, check) set of its surviving findings against the
// fixture's markers.
func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	p, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[finding]bool)
	for _, d := range RunPackage(p, []*Analyzer{a}) {
		if d.Check != a.Name {
			t.Errorf("unexpected %s diagnostic from the %s run: %s", d.Check, a.Name, d)
			continue
		}
		got[finding{line: d.Pos.Line, check: d.Check}] = true
	}
	want := expectedFindings(t, dir)
	if len(want) == 0 {
		t.Fatalf("fixture %s has no want markers", name)
	}
	for f := range want {
		if !got[f] {
			t.Errorf("%s: expected finding missing: %s", name, f)
		}
	}
	for f := range got {
		if !want[f] {
			t.Errorf("%s: unexpected finding: %s", name, f)
		}
	}
}

func TestHotPathFixture(t *testing.T)       { runFixture(t, "hotpath", HotPath) }
func TestHotPathStrictFixture(t *testing.T) { runFixture(t, "hotpathstrict", HotPathStrict) }
func TestFloatCmpFixture(t *testing.T)      { runFixture(t, "floatcmp", FloatCmp) }
func TestGlobalRandFixture(t *testing.T)    { runFixture(t, "globalrand", GlobalRand) }
func TestPanicFmtFixture(t *testing.T)      { runFixture(t, "panicfmt", PanicFmt) }
func TestErrCheckFixture(t *testing.T)      { runFixture(t, "errcheck", ErrCheck) }
func TestMapRangeFixture(t *testing.T)      { runFixture(t, "maprange", MapRange) }
func TestGoroutinesFixture(t *testing.T)    { runFixture(t, "goroutines", Goroutines) }
func TestCtxFlowFixture(t *testing.T)       { runFixture(t, "ctxflow", CtxFlow) }

// TestIgnoreNeedsJustification checks that a bare suppression directive
// is itself reported.
func TestIgnoreNeedsJustification(t *testing.T) {
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", "badignore"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(p, All)
	var checks []string
	for _, d := range diags {
		checks = append(checks, d.Check)
	}
	sort.Strings(checks)
	if len(checks) != 1 || checks[0] != "ignore" {
		t.Fatalf("got checks %v, want exactly one \"ignore\" finding", checks)
	}
}

// TestByName rejects unknown analyzer names and resolves subsets.
func TestByName(t *testing.T) {
	subset, err := ByName("floatcmp,errcheck")
	if err != nil || len(subset) != 2 {
		t.Fatalf("ByName subset = %v, %v", subset, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("ByName accepted an unknown check")
	}
}

// repoIgnoreBudget pins the number of justified //tcamvet:ignore
// directives in shipped (non-test, non-testdata) sources. Every
// suppression is a standing exception to a determinism or performance
// invariant; adding one is a reviewed decision, so a new directive must
// bump this constant in the same change that justifies it.
const repoIgnoreBudget = 12

// TestRepoIsClean runs the full suite — all nine analyzers — over the
// live repository; the tree must stay free of findings (satellite
// guarantee of the vet suite), and the count of justified ignores must
// not drift past the pinned budget.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type-check is not a -short test")
	}
	if got := len(All); got != 9 {
		t.Errorf("registry has %d analyzers, want 9; update the suite docs and this test together", got)
	}
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns([]string{moduleDir + string(filepath.Separator) + "..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l, dirs, All)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}

	ignores, err := countIgnoreDirectives(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	if ignores != repoIgnoreBudget {
		t.Errorf("repo carries %d //tcamvet:ignore directives, budget is %d; "+
			"if the new suppression is justified, record it in DESIGN.md §13 and bump repoIgnoreBudget",
			ignores, repoIgnoreBudget)
	}
}

// countIgnoreDirectives counts lines that begin with a //tcamvet:ignore
// directive in shipped .go files under root, skipping test files and the
// analyzer fixtures (testdata), where ignores only exercise the
// machinery.
func countIgnoreDirectives(root string) (int, error) {
	count := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), ignorePrefix+" ") {
				count++
			}
		}
		return nil
	})
	return count, err
}
