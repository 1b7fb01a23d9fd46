// Package lint implements daslint, an analyzer suite for the two coding
// rules no run of the simulator can check.
//
// The whole reproduction rests on the DES being bit-reproducible: scheme
// comparisons, fault-injection replays, and restripe crash demos are only
// evidence if the same seed yields the same event order. Most ways to break
// that are caught where the code runs — every replay test and
// `make bench-identity` compare two runs, bufpool.Audit keeps the pooled
// buffers honest, pfs's stored-strip seal fails a run that wrote into lent
// strip memory, and simnet's reply ledger one that dropped a reply. What
// remains here are the rules whose seeded bugs pass every test (DESIGN.md
// §10 has the table):
//
//   - detrand: map iteration must not decide the order of events or of a
//     slice that outlives the loop.
//   - goroutines: the scheduler owns concurrency; go statements are
//     illegal, and iter.Pull is legal only in internal/sim.
//
// The one exemption list lives in code (simExempt); there is no
// suppression comment.
//
// The package mirrors the shapes of golang.org/x/tools/go/analysis
// (Analyzer, Pass, analysistest-style golden files under testdata) but is
// built on the standard library alone: the build environment for this repo
// is offline, so x/tools cannot be a dependency. cmd/daslint is the
// driver; it loads packages through `go list -export`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this repository; analyzer
// scoping rules (simulated packages, internal/sim) are expressed against
// it.
const ModulePath = "github.com/hpcio/das"

// An Analyzer is one rule. Run sees one type-checked package at a time.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// All lists every analyzer in the suite, in the order they run.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Goroutines}
}

// A Pass carries one parsed, type-checked package into an analyzer's Run
// function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Package is the loaded form an analyzer pass runs over. Types and Info
// must be fully populated; the analyzers lean on type information to tell
// e.g. sim.Mailbox.Put from any other Put.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Check runs the given analyzers over pkg and returns their diagnostics
// sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// isTestFile reports whether the file at pos is a _test.go file. All
// analyzers exempt tests: tests run outside the DES and routinely use
// goroutines and throwaway maps.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// simExempt lists internal packages outside the simulated world: trace
// writes wall-clock-stamped artifacts to real files, and lint itself
// shells out to the go command. Extend this list when a whole package
// legitimately lives outside the DES.
var simExempt = []string{
	ModulePath + "/internal/trace",
	ModulePath + "/internal/lint",
}

// simulatedPkg reports whether path is a simulated package: everything
// under internal/ except the simExempt subtrees. Commands and the root
// package drive simulations but are themselves real programs.
func simulatedPkg(path string) bool {
	if !strings.HasPrefix(path, ModulePath+"/internal/") {
		return false
	}
	for _, ex := range simExempt {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return false
		}
	}
	return true
}

// calleeFunc resolves the function or method called by call, or nil when
// the callee is not a simple named function (conversions, indirect calls,
// builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFuncIs reports whether fn is the package-level function pkgpath.name.
func pkgFuncIs(fn *types.Func, pkgpath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgpath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// methodIs reports whether fn is the method pkgpath.typename.name
// (receiver pointerness and type arguments ignored).
func methodIs(fn *types.Func, pkgpath, typename, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typename && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath
}
