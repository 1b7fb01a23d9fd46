package lint

import (
	"go/ast"
	"go/types"
)

// Detrand forbids map-iteration order leaking into event order, in
// simulated packages outside _test.go files.
//
// Iterating a map while spawning procs, posting to mailboxes, pushing heap
// entries, or appending to a slice that is never sorted lets Go's
// randomized map order decide the event order — the classic silent
// nondeterminism leak. Iterate over sorted keys instead. A replay test only
// sees such a leak when two runs happen to draw different orders, which
// they may do one time in a thousand: cache.Manager.demoteIdle without its
// sort passed every test three times (DESIGN.md §10). Randomness that does
// not come from the plan's seed needs no rule here: fault's loss draws are
// the one random source, and TestStateLossDeterminism fails on a global
// draw, an opaque source or a wall-clock seed alike.
var Detrand = &Analyzer{Name: "detrand", Run: runDetrand}

func runDetrand(pass *Pass) {
	if !simulatedPkg(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRangeBody(pass, fd, rs)
					}
				}
				return true
			})
		}
	}
}

// orderingCall names the event-ordering function fn resolves to, or "".
func orderingCall(fn *types.Func) string {
	simPkg := ModulePath + "/internal/sim"
	switch {
	case methodIs(fn, simPkg, "Engine", "Spawn"),
		methodIs(fn, simPkg, "Engine", "SpawnDaemon"),
		methodIs(fn, simPkg, "Engine", "AfterFunc"),
		methodIs(fn, simPkg, "Engine", "AfterFuncDaemon"),
		methodIs(fn, simPkg, "Engine", "ScheduleTask"),
		methodIs(fn, simPkg, "Engine", "ResumeIn"):
		return "sim.Engine." + fn.Name()
	case methodIs(fn, simPkg, "Proc", "Spawn"):
		return "sim.Proc.Spawn"
	case methodIs(fn, simPkg, "Mailbox", "Put"):
		return "sim.Mailbox.Put"
	case pkgFuncIs(fn, "container/heap", "Push"):
		return "heap.Push"
	}
	return ""
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := orderingCall(calleeFunc(pass.Info, n)); name != "" {
				pass.Reportf(rs.For,
					"map iteration order reaches %s; iterate over sorted keys instead", name)
			}
		case *ast.AssignStmt:
			checkRangeAppend(pass, fd, rs, n)
		}
		return true
	})
}

// checkRangeAppend flags `dst = append(dst, ...)` inside a map range when
// dst outlives the loop and is never subsequently passed to a sort; the
// slice then carries the map's random order into whatever consumes it.
func checkRangeAppend(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			continue // a shadowing user function, not the predeclared append
		}
		if i >= len(as.Lhs) {
			continue
		}
		dst, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Uses[dst]
		if obj == nil {
			obj = pass.Info.Defs[dst]
		}
		if obj == nil {
			continue
		}
		// Only slices declared outside the loop carry order out of it.
		if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			continue
		}
		if sortedAfter(pass, fd, rs, obj) {
			continue
		}
		pass.Reportf(rs.For,
			"map iteration order reaches append to %q, which is never sorted afterwards; iterate over sorted keys or sort the result", dst.Name)
	}
}

// sortedAfter reports whether obj appears inside a sort/slices sorting
// call somewhere in fd after the range statement ends.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
