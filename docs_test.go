package tcam

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*\*?`)
	testDeclRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	sectionRe  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	sectionRef = regexp.MustCompile(`§(\d+)`)
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	fileNameRe = regexp.MustCompile(`^[A-Za-z][\w.-]*\.(?:go|md|sh|json|yml)$`)
	flagSpanRe = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?: |$)`)
	flagWordRe = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:=|$)`)
	// designCite is a "DESIGN.md §N" (or "DESIGN §N") citation, also one
	// that a Go comment wraps between the name and the section.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s*//)?\s+§(\d+)`)
)

// TestDocsReferToRealThings holds DESIGN.md, README.md and
// EXPERIMENTS.md to the tree they describe: every test, benchmark and
// fuzz target they name is declared in some _test.go file, every repo
// path they quote exists, every §N is a DESIGN.md section, every flag
// README quotes is defined by some command, and every flag of the two
// serving binaries is in README. Every "DESIGN.md §N" a Go file outside
// testdata or ROADMAP.md cites is a section too. In the three docs' code
// spans that run a command (`go run ./cmd/tcamexp -exp figure8`,
// `tcamquery -users`), each flag after the command's name is one its
// main.go defines; ROADMAP.md may name flags still to be written.
func TestDocsReferToRealThings(t *testing.T) {
	declared, files, goFiles := walkTree(t)
	design, readme, experiments := readDoc(t, "DESIGN.md"), readDoc(t, "README.md"), readDoc(t, "EXPERIMENTS.md")
	sections := map[string]bool{}
	for _, m := range sectionRe.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	defined := map[string]map[string]bool{}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	for _, path := range mains {
		defined[filepath.Base(filepath.Dir(path))] = flagsOf(t, path)
	}
	for _, doc := range []struct{ name, text string }{{"DESIGN.md", design}, {"README.md", readme}, {"EXPERIMENTS.md", experiments}} {
		for _, name := range testNameRe.FindAllString(doc.text, -1) {
			if !isDeclared(name, declared) {
				t.Errorf("%s names %s, which no _test.go declares", doc.name, name)
			}
		}
		for _, m := range sectionRef.FindAllStringSubmatch(doc.text, -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites §%s, which DESIGN.md has no section for", doc.name, m[1])
			}
		}
		for _, m := range codeSpanRe.FindAllStringSubmatch(doc.text, -1) {
			if !pathResolves(m[1], files) {
				t.Errorf("%s quotes `%s`, which is not in the repo", doc.name, m[1])
			}
			cmd := ""
			for _, word := range strings.Fields(m[1]) {
				if defined[path.Base(word)] != nil {
					cmd = path.Base(word)
				} else if f := flagWordRe.FindStringSubmatch(word); f != nil && cmd != "" && !defined[cmd][f[1]] {
					t.Errorf("%s quotes `%s`, but %s defines no -%s", doc.name, m[1], cmd, f[1])
				}
			}
		}
	}
	for _, file := range append(goFiles, "ROADMAP.md") {
		for _, m := range designCite.FindAllStringSubmatch(readDoc(t, file), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which is no section", file, m[1])
			}
		}
	}
	quoted := map[string]bool{}
	for _, m := range codeSpanRe.FindAllStringSubmatch(readme, -1) {
		f := flagSpanRe.FindStringSubmatch(m[1])
		if f == nil {
			continue
		}
		quoted[f[1]] = true
		found := false
		for _, flags := range defined {
			found = found || flags[f[1]]
		}
		if !found {
			t.Errorf("README.md quotes -%s, which no cmd/*/main.go defines", f[1])
		}
	}
	for _, cmd := range []string{"tcamserver", "tcamshard"} {
		for name := range defined[cmd] {
			if !quoted[name] {
				t.Errorf("%s defines -%s, which README.md never quotes", cmd, name)
			}
		}
	}
}

// TestSmokeFuzzesEveryTarget holds scripts/smoke.sh to the fuzz targets
// the tree declares: the `fuzz <dir> <name>` lines name exactly the
// `func Fuzz…` of the _test.go files outside bench/, each with its
// package directory, so a new fuzzer cannot be left out of CI.
func TestSmokeFuzzesEveryTarget(t *testing.T) {
	declared, _, _ := walkTree(t)
	want := map[string]bool{}
	for name, dirs := range declared {
		for _, dir := range dirs {
			if strings.HasPrefix(name, "Fuzz") && dir != "bench" && !strings.HasPrefix(dir, "bench/") {
				want[dir+" "+name] = true
			}
		}
	}
	listed := map[string]bool{}
	lines := regexp.MustCompile(`(?m)^fuzz (\S+) (\w+)$`)
	for _, m := range lines.FindAllStringSubmatch(readDoc(t, "scripts/smoke.sh"), -1) {
		key := path.Clean(m[1]) + " " + m[2]
		listed[key] = true
		if !want[key] {
			t.Errorf("scripts/smoke.sh fuzzes %s in %s, which no _test.go there declares", m[2], m[1])
		}
	}
	for key := range want {
		if !listed[key] {
			dir, name, _ := strings.Cut(key, " ")
			t.Errorf("%s declares %s, which scripts/smoke.sh does not fuzz", dir, name)
		}
	}
}

// walkTree returns the Test/Benchmark/Fuzz functions the tree's
// _test.go files declare, each with the directories declaring it, the
// set of every file's base name and the paths of the .go files, skipping
// dot directories (VCS data, build caches) and testdata.
func walkTree(t *testing.T) (declared map[string][]string, files map[string]bool, goFiles []string) {
	t.Helper()
	declared, files = map[string][]string{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDeclRe.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = append(declared[string(m[1])], filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, files, goFiles
}

// isDeclared reports whether name is a declared test function or, when
// it ends in "*", the prefix of one.
func isDeclared(name string, declared map[string][]string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return len(declared[name]) > 0
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// pathResolves reports whether a code span that looks like a repo path
// names something that exists: a span whose first element is a
// top-level directory must match at least one path (after brace
// expansion and globbing), and a bare file name must be some file's
// base name. Only the span's first word counts (`scripts/bench.sh
// query` names scripts/bench.sh). Every other span is not a path and
// passes.
func pathResolves(span string, files map[string]bool) bool {
	span, _, _ = strings.Cut(span, " ")
	if fileNameRe.MatchString(span) {
		return files[span]
	}
	first, _, ok := strings.Cut(span, "/")
	if !ok {
		return true
	}
	if st, err := os.Stat(first); err != nil || !st.IsDir() {
		return true
	}
	for _, p := range expandBraces(span) {
		if matches, _ := filepath.Glob(strings.TrimSuffix(p, "/")); len(matches) == 0 {
			return false
		}
	}
	return true
}

// expandBraces expands shell-style alternatives: "a{b,c}d" → abd, acd.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	end := strings.IndexByte(s, '}')
	if open < 0 || end < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// flagsOf returns the flag names a main.go defines through the flag
// package's definers, on the package's FlagSet or on its own.
func flagsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	return flags
}

// flagDefiners are the flag package's functions and FlagSet methods
// that define a flag; those ending in Var take the name second.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
