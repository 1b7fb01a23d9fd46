package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// coroutinePkg is the one package that may call iter.Pull: every sim.Proc
// is a coroutine the engine resumes and parks (internal/sim/coro.go).
const coroutinePkg = ModulePath + "/internal/sim"

// Goroutines forbids starting a second stack outside internal/sim.
//
// Simulated concurrency is a sim.Proc: a coroutine the engine resumes and
// that parks back into it, exactly one stack running at a time, which is
// what makes the event order a pure function of the seed. A stray go
// statement introduces real parallelism the engine cannot serialize, and
// iter.Pull (or Pull2) is the other way to start a second stack: a
// hand-rolled coroutine whose switches the engine neither orders nor
// unwinds at Shutdown. No package may use go, and only internal/sim (the
// Proc handoff itself) may reference iter.Pull; _test.go files are
// exempt. A go statement or a coroutine whose work is joined before the
// next event passes every test, so this rule stays (DESIGN.md §10).
var Goroutines = &Analyzer{Name: "goroutines", Run: runGoroutines}

func runGoroutines(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path(), ModulePath) {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		pullOK := pass.Pkg.Path() == coroutinePkg
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement; spawn a sim.Proc")
			case *ast.Ident:
				if pullOK {
					break
				}
				// Any reference counts, not only a call: a stored
				// iter.Pull is called somewhere the analyzer cannot see.
				fn, _ := pass.Info.Uses[n].(*types.Func)
				if pkgFuncIs(fn, "iter", "Pull") || pkgFuncIs(fn, "iter", "Pull2") {
					pass.Reportf(n.Pos(),
						"iter.%s outside internal/sim starts a coroutine the engine does not schedule; spawn a sim.Proc", fn.Name())
				}
			}
			return true
		})
	}
}
