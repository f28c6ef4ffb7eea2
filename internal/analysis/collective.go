package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Collective finds collective operations (Barrier, BcastInto, ...) whose
// execution is control-dependent on a rank-varying condition.  A collective
// must be entered by every rank of its communicator; when `if c.Rank() == 0`
// guards one, the other ranks block inside the collective's internal
// receives forever.  The sim watchdog (internal/sim/watchdog.go) diagnoses
// that hang at run time — this analyzer reports the mistake before the code
// runs at all.
//
// Rank variance is tracked intra-procedurally: calls to Rank() on a Comm or
// Proc (and, inside package comm, the Comm.me / Proc.rank fields) taint the
// variables assigned from them, and any if/switch/for condition mentioning a
// tainted value makes the statements it guards rank-varying.  Code where all
// ranks provably take the same branch (e.g. a condition on replicated data)
// can annotate //lint:allow collective <reason>.
var Collective = &Analyzer{
	Name: "collective",
	Doc: `flag collectives control-dependent on rank-varying conditions

Every rank of a communicator must call a collective operation for it to
complete; guarding one behind a condition derived from Rank() is the classic
MPI deadlock shape.`,
	Run: runCollective,
}

// collectiveMethods are the Comm operations every rank must enter together
// (Split included: it is a symmetric all-ranks protocol) — every method of
// Comm that is not point-to-point or an accessor.
var collectiveMethods = []string{
	"Barrier", "BcastInto", "ReduceInto", "AllreduceInto",
	"GathervInto", "ScattervInto", "AlltoallvInto", "AllgathervInto",
	"AllgathervTree", "Split",
}

func runCollective(pass *Pass) error {
	for _, file := range pass.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			checkCollectives(pass, body)
		})
	}
	return nil
}

// checkCollectives analyzes one function body.
func checkCollectives(pass *Pass, body *ast.BlockStmt) {
	tainted := rankTaint(pass, body)
	exprTainted := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[n]; obj != nil && tainted[obj] {
					found = true
				}
			case *ast.CallExpr:
				if isRankSource(pass.TypesInfo, n) {
					found = true
				}
			case *ast.SelectorExpr:
				if isRankField(pass.TypesInfo, n) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// walk descends the body carrying the position of the innermost
	// rank-varying condition currently in force (NoPos when none).
	var walk func(n ast.Node, rankCond token.Pos)
	walkAll := func(nodes []ast.Stmt, rankCond token.Pos) {
		for _, s := range nodes {
			walk(s, rankCond)
		}
	}
	walk = func(n ast.Node, rankCond token.Pos) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // analyzed as its own function body
		case *ast.IfStmt:
			walk(n.Init, rankCond)
			walk(n.Cond, rankCond)
			inner := rankCond
			if exprTainted(n.Cond) {
				inner = n.Cond.Pos()
			}
			walk(n.Body, inner)
			walk(n.Else, inner)
		case *ast.SwitchStmt:
			walk(n.Init, rankCond)
			walk(n.Tag, rankCond)
			inner := rankCond
			if exprTainted(n.Tag) {
				inner = n.Tag.Pos()
			}
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CaseClause)
				caseCond := inner
				for _, e := range cc.List {
					walk(e, rankCond)
					if caseCond == token.NoPos && exprTainted(e) {
						caseCond = e.Pos()
					}
				}
				walkAll(cc.Body, caseCond)
			}
		case *ast.ForStmt:
			walk(n.Init, rankCond)
			walk(n.Cond, rankCond)
			inner := rankCond
			if exprTainted(n.Cond) {
				inner = n.Cond.Pos()
			}
			walk(n.Post, inner)
			walk(n.Body, inner)
		case *ast.RangeStmt:
			walk(n.X, rankCond)
			inner := rankCond
			if exprTainted(n.X) {
				inner = n.X.Pos()
			}
			walk(n.Body, inner)
		case *ast.CallExpr:
			if name, ok := methodOn(pass.TypesInfo, n, "comm", "Comm", collectiveMethods...); ok && rankCond != token.NoPos {
				pos := pass.Fset.Position(rankCond)
				pass.Reportf(n.Pos(),
					"collective Comm.%s is control-dependent on the rank-varying condition at line %d: every rank must call it or none will complete; hoist it out, or annotate //lint:allow collective <reason> if all ranks provably agree",
					name, pos.Line)
			}
			for _, a := range n.Args {
				walk(a, rankCond)
			}
			walk(n.Fun, rankCond)
		default:
			walkChildren(n, func(c ast.Node) { walk(c, rankCond) })
		}
	}
	walk(body, token.NoPos)
}

// walkChildren visits n's immediate children.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

// isRankSource reports whether call is Rank() on a comm.Comm or sim.Proc.
func isRankSource(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := methodOn(info, call, "comm", "Comm", "Rank"); ok {
		return true
	}
	_, ok := methodOn(info, call, "sim", "Proc", "Rank")
	return ok
}

// isRankField reports whether sel reads the rank-identity field of a
// comm.Comm (me) or sim.Proc (rank) — only reachable from inside those
// packages, where the implementation itself is analyzed.
func isRankField(info *types.Info, sel *ast.SelectorExpr) bool {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Name() == "comm" && obj.Name() == "me":
		return true
	case obj.Pkg().Name() == "sim" && obj.Name() == "rank":
		return true
	}
	return false
}

// rankTaint computes the set of objects in one function body whose values
// derive from the local rank, by fixpoint over the body's assignments.
func rankTaint(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[n]; obj != nil && tainted[obj] {
					found = true
				}
			case *ast.CallExpr:
				if isRankSource(pass.TypesInfo, n) {
					found = true
				}
			case *ast.SelectorExpr:
				if isRankField(pass.TypesInfo, n) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for {
		changed := false
		inspectSkippingFuncLits(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				anyRHS := false
				for _, r := range n.Rhs {
					if exprTainted(r) {
						anyRHS = true
						break
					}
				}
				if !anyRHS {
					return true
				}
				for _, l := range n.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				anyRHS := false
				for _, r := range n.Values {
					if exprTainted(r) {
						anyRHS = true
						break
					}
				}
				if !anyRHS {
					return true
				}
				for _, id := range n.Names {
					obj := pass.TypesInfo.Defs[id]
					if obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			return tainted
		}
	}
}
