// Package lint implements daslint, a vet-style analyzer suite that turns
// the simulator's determinism and ownership contracts from doc comments
// into build-time errors.
//
// The whole reproduction rests on the DES being bit-reproducible: scheme
// comparisons, fault-injection replays, and restripe crash demos are only
// evidence if the same seed yields the same event order. Four analyzers
// enforce the invariants that keep it that way:
//
//   - simclock: simulated packages must use the DES clock (sim.Time,
//     Proc.Sleep), never the wall clock.
//   - detrand: randomness must flow through a seeded *rand.Rand threaded
//     from the plan/engine, and map iteration must not feed the event
//     order.
//   - goroutines: the scheduler owns concurrency; go statements are only
//     legal at the blessed sites.
//   - borrow: the strip memory a read lends out is read-only — never
//     released to a pool, copied into, or assigned through an index.
//
// A final analyzer, directive, validates the //das:allow suppression
// comments the others honor, reports any other //das: comment, and
// reports stale allows whose guarded line no longer needs them.
//
// Two contracts are not checked here but where the code runs. Pooled-buffer
// ownership — every Get Put back, nothing read after its Put — is
// bufpool.Audit's: it records what the pool hands out and poisons what
// comes back, and the tests that run every scenario under it fail on a
// leak or a stale read. Exactly one reply per request is simnet's reply
// ledger: every run fails at quiescence if the requests delivered and the
// responses sent differ.
//
// The package deliberately mirrors the shapes of
// golang.org/x/tools/go/analysis (Analyzer, Pass, analysistest-style
// golden files under testdata) so it can be ported to the real framework
// mechanically, but it is built on the standard library alone: the build
// environment for this repo is offline, so x/tools cannot be a
// dependency. cmd/daslint is the driver; it runs standalone over go list
// packages and speaks the `go vet -vettool` protocol.
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
// scoping rules (simulated packages, allowlisted files) are expressed
// against it.
const ModulePath = "github.com/hpcio/das"

// An Analyzer describes one invariant check. The first line of Doc is the
// one-line summary printed by `daslint -list`. Run sees one type-checked
// package at a time, which is all the `go vet -vettool` protocol can
// provide (vet hands the driver one compilation unit, without dependency
// source).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Summary returns the first line of the analyzer's documentation.
func (a *Analyzer) Summary() string {
	if i := strings.IndexByte(a.Doc, '\n'); i >= 0 {
		return a.Doc[:i]
	}
	return a.Doc
}

// All lists every analyzer in the suite, in the order they run.
func All() []*Analyzer {
	return []*Analyzer{Simclock, Detrand, Goroutines, Borrow, Directive}
}

// A Pass carries one parsed, type-checked package into an analyzer's Run
// function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	directives []*directive
	report     func(Diagnostic)
}

// Reportf records a diagnostic at pos. Suppression (//das:allow) is
// applied by the driver, not here.
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
// e.g. sim.Mailbox.Put from bufpool.Pool.Put.
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

// Check runs the given analyzers over pkg and returns the surviving
// diagnostics sorted by position: suppression directives have been
// applied, and any malformed directives appear as findings of the
// directive analyzer. When the directive analyzer runs, Check also reports
// stale directives — a //das:allow that suppressed nothing — so
// suppressions cannot outlive the code they excused. Every analyzer sees
// one package, so one package's directives are all a run can judge.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			directives: dirs,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Types.Path(), a.Name, err)
		}
	}
	diags = filterSuppressed(pkg.Fset, dirs, diags)
	if hasAnalyzer(analyzers, Directive.Name) {
		diags = append(diags, staleDirectives(dirs, analyzers)...)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func hasAnalyzer(analyzers []*Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// isTestFile reports whether the file at pos is a _test.go file. All
// analyzers exempt tests: tests run outside the DES and routinely use
// wall clocks, goroutines, and throwaway randomness.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// simExempt lists internal packages outside the simulated world: trace
// writes wall-clock-stamped artifacts to real files, and lint itself
// shells out to the go command. Extend this list (not ad-hoc //das:allow
// comments) when a whole package legitimately lives off the DES clock.
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
