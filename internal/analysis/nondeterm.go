package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Nondeterm flags code that can make a simulated run differ between two
// executions with the same inputs: wall-clock time, randomness that does not
// flow from the seeded per-run source, and iteration over maps whose order
// leaks into results.  The whole reproduction strategy rests on the virtual
// machine being bit-deterministic (internal/sim doc comment; the
// crash-recovery experiment replays runs and compares state bit for bit), so
// these are correctness bugs here, not style.
//
// A map range is accepted without annotation when its body only appends the
// keys/values to a slice that is sorted later in the same function — the
// canonical sorted-keys idiom.  Anything else order-insensitive must carry
// //lint:allow nondeterm <reason>.
//
// Scope has two levels.  Simulation packages are held to the full rule set.
// The serving layer (internal/server) measures real latencies and enforces
// real deadlines, so the wall clock is legitimate there — but its response
// bodies and /metrics text are replayed byte-for-byte, so it is still held
// to the map-iteration-order rule.
var Nondeterm = &Analyzer{
	Name: "nondeterm",
	Doc: `flag wall-clock time, unseeded randomness, and map iteration in simulation code

Wall-clock calls (time.Now, time.Since, ...), the global math/rand source,
crypto/rand, and range-over-map iteration all vary between executions.
Simulation packages must derive randomness from the per-run seed and
iterate maps in sorted key order (or prove order-insensitivity with a
//lint:allow nondeterm <reason> annotation).  Serving-layer packages
(internal/server) are checked for map-iteration order only: their emitted
bytes must be deterministic, but wall-clock reads are part of their job.`,
	Run: runNondeterm,
}

// determinismLevel is how much of the nondeterm rule set a package is held
// to.
type determinismLevel int

const (
	// levelExempt: not simulation code; nothing is checked.
	levelExempt determinismLevel = iota
	// levelMapOrder: only map-iteration order is checked.  For serving-layer
	// code whose *emitted bytes* must be deterministic (cache bodies,
	// /metrics scrapes) but which legitimately reads the wall clock for
	// latency measurement and timeouts.
	levelMapOrder
	// levelFull: bit-determinism — wall clock, randomness and map order.
	levelFull
)

// nondetermScope maps import-path segments (under internal/) to the
// determinism level their packages are held to.  Everything that contributes
// to a simulated run or renders its results is levelFull; cmd/ and examples/
// wrappers may use wall-clock time for progress reporting and are exempt.
var nondetermScope = map[string]determinismLevel{
	"sim": levelFull, "comm": levelFull, "core": levelFull, "dynamics": levelFull,
	"physics": levelFull, "filter": levelFull, "loadbalance": levelFull, "grid": levelFull,
	"solver": levelFull, "fft": levelFull,
	// Result-rendering and support packages: their output is part of the
	// experiments' reproducibility contract.
	"trace": levelFull, "diag": levelFull, "experiments": levelFull, "stats": levelFull,
	"history": levelFull, "fault": levelFull, "machine": levelFull, "cachesim": levelFull,
	"singlenode": levelFull, "topology": levelFull,
	// The frame codec's byte layout is canonical — same value, same bytes,
	// on every host — and the disk store's eviction order is insertion
	// order, not timestamps, so the whole package is held to bit-determinism.
	"frame": levelFull,
	// The workload engine's entire contract is bit-determinism: identical
	// spec, identical schedule, identical trace bytes, identical virtual-time
	// simulation — on every host.
	"workload": levelFull,
	// The roofline model's contract is the same: kernel counts are pure
	// functions of the config, and the least-squares fit must produce
	// bit-identical coefficients for any sample insertion order.  The
	// wall-clock *observation* side of its calibration loop lives in
	// cmd/agcmbench; commands are out of scope.
	"roofline": levelFull,
	// The serving daemon measures real latencies and enforces real
	// deadlines, so the wall clock is legitimate there — but its response
	// bodies and /metrics text are replayed byte-for-byte, so map emission
	// order still must be deterministic.
	"server": levelMapOrder,
	// The gateway routes on real time (probes, backoff, cooldowns) but its
	// /metrics scrapes, event classifications, and backend rankings must not
	// depend on map iteration order; covers internal/gateway/chaostest too.
	"gateway": levelMapOrder,
	// The metrics registry renders every byte of both daemons' /metrics:
	// label values must be emitted sorted, never in map order.
	"metrics": levelMapOrder,
}

// nondetermLevel returns the determinism level the package with the given
// import path is held to.  Fixture packages under a testdata tree resolve
// their level by the base directory name (so a fixture named "server"
// exercises the map-order-only level); unknown fixture names stay levelFull,
// keeping pre-existing fixtures fully checked.
func nondetermLevel(path string) determinismLevel {
	if strings.Contains(path, "/testdata/") {
		base := path
		if j := strings.LastIndexByte(base, '/'); j >= 0 {
			base = base[j+1:]
		}
		if lvl, ok := nondetermScope[base]; ok {
			return lvl
		}
		return levelFull
	}
	i := strings.LastIndex(path, "internal/")
	if i < 0 {
		return levelExempt
	}
	rest := path[i+len("internal/"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return nondetermScope[rest]
}

// wallClockFuncs are the time package functions that observe the wall clock
// or the scheduler.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

// seededRandConstructors are the math/rand functions that are allowed: they
// build an explicitly seeded source, which is how per-run randomness must
// flow into the simulation.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func runNondeterm(pass *Pass) error {
	lvl := nondetermLevel(pass.Pkg.Path())
	if lvl == levelExempt {
		return nil
	}
	for _, file := range pass.Files {
		if lvl == levelFull {
			checkWallClockAndRand(pass, file)
		}
		funcBodies(file, func(body *ast.BlockStmt) {
			checkMapRanges(pass, body)
		})
	}
	return nil
}

// checkWallClockAndRand flags wall-clock reads and unseeded randomness in
// one file (the levelFull-only rules).
func checkWallClockAndRand(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := packageQualifier(pass.TypesInfo, sel)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch pkgPath {
		case "time":
			if wallClockFuncs[name] {
				pass.Reportf(sel.Pos(),
					"time.%s observes the wall clock: simulated runs must be bit-deterministic; use virtual time (sim.Proc.Clock)", name)
			}
		case "math/rand", "math/rand/v2":
			if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil {
				if _, isFunc := obj.(*types.Func); isFunc && !seededRandConstructors[name] {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the global random source: randomness must flow from the seeded per-run source (rand.New(rand.NewSource(seed)))", pkgPath, name)
				}
			}
		case "crypto/rand":
			pass.Reportf(sel.Pos(),
				"crypto/rand is inherently nondeterministic: randomness must flow from the seeded per-run source")
		}
		return true
	})
}

// packageQualifier resolves sel's X to an imported package, returning its
// import path.
func packageQualifier(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// checkMapRanges flags order-sensitive map iteration in one function body.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		// `for range m` (no variables) only counts iterations; order
		// cannot be observed.
		if !bindsVariable(rng.Key) && !bindsVariable(rng.Value) {
			return true
		}
		if isSortedCollectLoop(pass, body, rng) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"range over map %s: iteration order is nondeterministic; iterate sorted keys, or annotate //lint:allow nondeterm <reason> if provably order-insensitive",
			types.ExprString(rng.X))
		return true
	})
}

// bindsVariable reports whether a range clause expression binds an
// observable variable (anything but absent or the blank identifier).
func bindsVariable(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return false
	}
	return true
}

// isSortedCollectLoop recognizes the sorted-keys idiom: the loop body is a
// single append into some slice s, and later in the same function body s is
// passed to a sort (sort.Strings/Ints/Float64s/Slice/SliceStable or
// slices.Sort*).  The iteration order then provably cannot reach results.
func isSortedCollectLoop(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	target := types.ExprString(assign.Lhs[0])
	if types.ExprString(call.Args[0]) != target {
		return false
	}
	sorted := false
	inspectSkippingFuncLits(funcBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := packageQualifier(pass.TypesInfo, sel)
		if !ok {
			return true
		}
		isSortCall := (pkgPath == "sort" && (sel.Sel.Name == "Strings" || sel.Sel.Name == "Ints" ||
			sel.Sel.Name == "Float64s" || sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceStable")) ||
			(pkgPath == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		if isSortCall && types.ExprString(call.Args[0]) == target {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}
