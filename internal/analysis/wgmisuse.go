package analysis

import "go/ast"

// Wgmisuse flags the two sync.WaitGroup mistakes that turn a clean
// drain/Close into a race or a hang.  The server's Drain and the gateway's
// Close both join goroutines through WaitGroups, so the protocol — Add
// before `go`, Done deferred inside — is part of the shutdown contract:
//
//   - Add called inside the spawned goroutine races Wait: the waiter can
//     observe the counter before the goroutine ran Add and return early;
//   - Done not deferred: a panic (or an early return added later) between
//     the goroutine's start and its Done leaves Wait stuck forever.
//
// A WaitGroup copied by value is go vet's copylocks finding, so it is not
// repeated here.
var Wgmisuse = &Analyzer{
	Name: "wgmisuse",
	Doc: `flag WaitGroup.Add inside the spawned goroutine and non-deferred Done

Add must happen before the go statement and Done must be deferred first
thing inside the goroutine.  WaitGroup copies are go vet's copylocks check.
Suppress with //lint:allow wgmisuse <reason>.`,
	Run: runWgmisuse,
}

func runWgmisuse(pass *Pass) error {
	if !concurrencyInScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				checkSpawnedWgBody(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// checkSpawnedWgBody checks Add/Done discipline inside one go-launched
// function literal.
func checkSpawnedWgBody(pass *Pass, body *ast.BlockStmt) {
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested launch is checked at its own go statement
		case *ast.DeferStmt:
			// defer wg.Done() (or a deferred closure calling it) is the
			// correct shape; nothing inside a defer is a violation.
			return false
		case *ast.CallExpr:
			switch m, _ := methodOn(pass.TypesInfo, n, "sync", "WaitGroup", "Add", "Done"); m {
			case "Add":
				pass.Reportf(n.Pos(),
					"WaitGroup.Add inside the spawned goroutine races Wait: the waiter can pass before this Add runs; move the Add before the go statement")
			case "Done":
				pass.Reportf(n.Pos(),
					"WaitGroup.Done is not deferred: a panic or early return before this line leaves Wait stuck; make it `defer` first thing in the goroutine")
			}
		}
		return true
	})
}
