package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Commtag constant-propagates the tag argument of point-to-point Comm calls
// and reports tags that land outside the user range [0, MaxUserTag): tags at
// or above MaxUserTag are reserved for collective traffic (barrier, bcast,
// reduce, gather/scatter payloads, ...), and a user message carrying one
// silently interleaves with collective payloads — the gather/scatter
// collision fixed in PR 1.  comm.checkUserTag catches this at run time; the
// analyzer catches it before the code ever runs, extending the compile-time
// reserved-tag guard in internal/comm.
//
// Only tags the type checker can fold to a constant are checked; dynamic tag
// arithmetic (e.g. base+round) is bounds-checked at run time by
// checkUserTag.
var Commtag = &Analyzer{
	Name: "commtag",
	Doc: `flag constant point-to-point tags outside the user range

Comm.SendCopy/RecvInto/SendrecvInto take a user tag that must lie in
[0, comm.MaxUserTag); the tags above are reserved for collective traffic and
colliding with them corrupts collectives without any error.`,
	Run: runCommtag,
}

// fallbackMaxUserTag mirrors comm.MaxUserTag (tagSpace - 64) for analyzed
// trees whose comm package predates the exported constant.
const fallbackMaxUserTag = 1<<16 - 64

// commtagMethods maps checked methods to the indices of their tag arguments.
var commtagMethods = map[string][]int{
	"SendCopy":     {1},
	"RecvInto":     {1},
	"SendrecvInto": {1, 4},
}

func runCommtag(pass *Pass) error {
	methodNames := make([]string, 0, len(commtagMethods))
	for name := range commtagMethods {
		methodNames = append(methodNames, name)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := methodOn(pass.TypesInfo, call, "comm", "Comm", methodNames...)
			if !ok {
				return true
			}
			limit := maxUserTagOf(commPackageOf(pass.TypesInfo, call))
			for _, idx := range commtagMethods[name] {
				if idx >= len(call.Args) {
					continue
				}
				arg := call.Args[idx]
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					continue
				}
				v, ok := constant.Int64Val(tv.Value)
				if !ok {
					continue
				}
				switch {
				case v < 0:
					pass.Reportf(arg.Pos(),
						"tag %d passed to Comm.%s is negative: user tags must lie in [0, %d)", v, name, limit)
				case v >= limit:
					pass.Reportf(arg.Pos(),
						"tag %d passed to Comm.%s collides with the reserved collective tag range: user tags must lie in [0, %d)", v, name, limit)
				}
			}
			return true
		})
	}
	return nil
}

// commPackageOf returns the types.Package that declares the Comm method
// being called, i.e. the comm package as seen by the analyzed code.
func commPackageOf(info *types.Info, call *ast.CallExpr) *types.Package {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	return selection.Obj().Pkg()
}

// maxUserTagOf reads the exported MaxUserTag constant from the comm package,
// falling back to the built-in mirror when absent.
func maxUserTagOf(commPkg *types.Package) int64 {
	if commPkg == nil {
		return fallbackMaxUserTag
	}
	obj := commPkg.Scope().Lookup("MaxUserTag")
	c, ok := obj.(*types.Const)
	if !ok {
		return fallbackMaxUserTag
	}
	if v, ok := constant.Int64Val(c.Val()); ok {
		return v
	}
	return fallbackMaxUserTag
}
