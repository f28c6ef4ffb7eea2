package agcm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docName matches a backticked span that names tests, benchmarks or fuzz
// targets, optionally qualified by its package: `TestPlanRows*`,
// `BenchmarkTable{4,5}AGCM*`, `sim.TestFanPanicIsRankPanic`.
var docName = regexp.MustCompile("`(?:[a-z]+\\.)?((?:Test|Benchmark|Fuzz)[A-Za-z0-9_*{},]*)`")

// TestDocsNameRealTests: every test, benchmark and fuzz target the prose
// docs name in backticks — `{a,b}` sets expanded, `*` globbing as in
// path.Match — matches a function defined in a _test.go file of the module,
// so a renamed or deleted test cannot leave a doc pointing at nothing.
func TestDocsNameRealTests(t *testing.T) {
	defined := testFuncs(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docName.FindAllStringSubmatch(string(raw), -1) {
			for _, pattern := range expandBraces(m[1]) {
				if !matchesAny(t, pattern, defined) {
					t.Errorf("%s names `%s`, but no test function matches %s", doc, m[1], pattern)
				}
			}
		}
	}
}

// changesEntry matches the change number a CHANGES.md entry opens with:
// "- PR 12 [perf_opt] …" or "- PR 12: …".
var changesEntry = regexp.MustCompile(`^- PR (\d+)\b`)

// TestChangesEntriesUnique: CHANGES.md has one entry per change number and
// no bullet line twice, so a block pasted a second time cannot hide among
// its long lines.
func TestChangesEntriesUnique(t *testing.T) {
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{} // change number -> first line
	bullets := map[string]int{} // bullet text -> first line
	for i, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "- ") {
			continue
		}
		if first, ok := bullets[line]; ok {
			t.Errorf("CHANGES.md:%d repeats the bullet of line %d", i+1, first)
		} else {
			bullets[line] = i + 1
		}
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			if first, ok := entries[m[1]]; ok {
				t.Errorf("CHANGES.md:%d is a second entry numbered %s (first on line %d)", i+1, m[1], first)
			} else {
				entries[m[1]] = i + 1
			}
		}
	}
}

// simCommBudget is the most non-test lines internal/sim and internal/comm
// may hold together (ROADMAP item 3): growth in the simulator's core must be
// paid for by shrinking it elsewhere.
const simCommBudget = 2171

// TestSimCommLineBudget counts the lines of the non-test Go files of
// internal/sim and internal/comm against simCommBudget.
func TestSimCommLineBudget(t *testing.T) {
	total := 0
	for _, dir := range []string{"internal/sim", "internal/comm"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			total += strings.Count(string(raw), "\n")
		}
	}
	if total > simCommBudget {
		t.Fatalf("internal/sim + internal/comm hold %d non-test lines, over the budget of %d", total, simCommBudget)
	}
	t.Logf("internal/sim + internal/comm: %d of %d non-test lines", total, simCommBudget)
}

// testFuncs returns the names of the top-level functions of every _test.go
// file in the module, skipping testdata and nested modules.
func testFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// expandBraces expands every {a,b,...} set in s, left to right.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	shut := strings.IndexByte(s, '}')
	if open < 0 || shut < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:shut], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[shut+1:])...)
	}
	return out
}

func matchesAny(t *testing.T, pattern string, names []string) bool {
	t.Helper()
	for _, name := range names {
		ok, err := path.Match(pattern, name)
		if err != nil {
			t.Fatalf("bad pattern %q: %v", pattern, err)
		}
		if ok {
			return true
		}
	}
	return false
}
