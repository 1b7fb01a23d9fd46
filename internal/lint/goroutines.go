package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// goAllowlist names the files where a raw go statement is legal, as
// (package path, file basename) pairs. There is one:
// internal/kernels/parallel.go is the row-sharded kernel executor, which
// is outside the DES (it computes between events and is byte-identical to
// the sequential path). Extend this table with a comment saying why.
var goAllowlist = map[[2]string]bool{
	{ModulePath + "/internal/kernels", "parallel.go"}: true,
}

// coroutinePkg is the one package that may call iter.Pull: every sim.Proc
// is a coroutine the engine resumes and parks (internal/sim/coro.go).
const coroutinePkg = ModulePath + "/internal/sim"

// Goroutines forbids starting a second stack outside the blessed sites.
//
// Simulated concurrency is a sim.Proc: a coroutine the engine resumes and
// that parks back into it, exactly one stack running at a time, which is
// what makes the event order a pure function of the seed. A stray go
// statement introduces real parallelism the engine cannot serialize, and
// iter.Pull (or Pull2) is the other way to start a second stack: a
// hand-rolled coroutine whose switches the engine neither orders nor
// unwinds at Shutdown. Only internal/kernels/parallel.go (compute between
// events) may use go, and only internal/sim (the Proc handoff itself) may
// reference iter.Pull; _test.go files are exempt. A go statement or a
// coroutine whose work is joined before the next event passes every test,
// so this rule stays (DESIGN.md §10).
var Goroutines = &Analyzer{Name: "goroutines", Run: runGoroutines}

func runGoroutines(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path(), ModulePath) {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		goOK := goAllowlist[[2]string{pass.Pkg.Path(), base}]
		pullOK := pass.Pkg.Path() == coroutinePkg
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goOK {
					pass.Reportf(n.Pos(),
						"go statement outside the allowlisted scheduler sites; spawn a sim.Proc (or extend goAllowlist with a justification)")
				}
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
