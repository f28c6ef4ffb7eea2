package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"agcm/internal/analysis"
	"agcm/internal/analysis/analysistest"
)

func TestNondetermFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Nondeterm, "./testdata/src/nondeterm")
}

// TestServerScopeFixtures exercises the map-order-only level: the fixture
// directory is named "server", so wall-clock reads pass while unsorted map
// emission is still flagged.
func TestServerScopeFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Nondeterm, "./testdata/src/server")
}

// TestGatewayScopeFixtures pins the gateway scope to the same map-order-only
// level: backend scoring that leaks map iteration order is flagged, the wall
// clock (probes, backoff) is not.
func TestGatewayScopeFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Nondeterm, "./testdata/src/gateway")
}

// TestMetricsScopeFixtures pins internal/metrics to the map-order-only
// level: an unsorted label emission is flagged, the sorted-keys idiom and the
// wall clock are not.
func TestMetricsScopeFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Nondeterm, "./testdata/src/metrics")
}

func TestCommtagFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Commtag, "./testdata/src/commtag")
}

func TestCollectiveFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Collective, "./testdata/src/collective")
}

func TestLockorderFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Lockorder, "./testdata/src/lockorder")
}

func TestGoleakFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Goleak, "./testdata/src/goleak")
}

func TestCtxflowFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Ctxflow, "./testdata/src/ctxflow")
}

func TestWgmisuseFixtures(t *testing.T) {
	analysistest.Run(t, analysis.Wgmisuse, "./testdata/src/wgmisuse")
}

// checkSource type-checks an import-free source snippet and runs the given
// analyzers over it via the framework (exercising the //lint:allow plumbing
// without the go list round trip).
func checkSource(t *testing.T, src string, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "internal/sim/fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{}
	pkg, err := conf.Check("agcm/internal/sim", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(
		[]*analysis.Package{{Fset: fset, Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info}},
		analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestMalformedAllowDirective checks that //lint:allow without a reason is
// itself reported and suppresses nothing.
func TestMalformedAllowDirective(t *testing.T) {
	src := `package sim

func f(m map[int]int) int {
	s := 0
	//lint:allow nondeterm
	for _, v := range m {
		s += v
	}
	return s
}
`
	diags := checkSource(t, src, []*analysis.Analyzer{analysis.Nondeterm})
	var gotMalformed, gotRange bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lintdirective":
			gotMalformed = true
			if !strings.Contains(d.Message, "non-empty reason") {
				t.Errorf("malformed-directive message = %q", d.Message)
			}
		case "nondeterm":
			gotRange = true
		}
	}
	if !gotMalformed {
		t.Error("missing lintdirective diagnostic for reason-less //lint:allow")
	}
	if !gotRange {
		t.Error("reason-less //lint:allow must not suppress the map-range diagnostic")
	}
}

// TestAllowIsAnalyzerSpecific checks that an allow for one analyzer does not
// suppress another's diagnostic on the same line.
func TestAllowIsAnalyzerSpecific(t *testing.T) {
	src := `package sim

func f(m map[int]int) int {
	s := 0
	for _, v := range m { //lint:allow commtag wrong analyzer name
		s += v
	}
	return s
}
`
	diags := checkSource(t, src, []*analysis.Analyzer{analysis.Nondeterm})
	found := false
	for _, d := range diags {
		if d.Analyzer == "nondeterm" {
			found = true
		}
	}
	if !found {
		t.Error("//lint:allow commtag suppressed a nondeterm diagnostic")
	}
}

// TestScope checks that packages outside the determinism scope are exempt
// from nondeterm but that fixtures under testdata are always in scope.
func TestScope(t *testing.T) {
	src := `package main

func f(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cmd/agcm/main.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{}).Check("agcm/cmd/agcm", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(
		[]*analysis.Package{{Fset: fset, Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info}},
		[]*analysis.Analyzer{analysis.Nondeterm})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("cmd/ packages must be exempt from nondeterm, got %d diagnostics", len(diags))
	}
}
