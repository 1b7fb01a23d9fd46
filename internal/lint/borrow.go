package lint

import (
	"go/ast"
	"go/types"
)

// Borrow checks that memory the strip store lends out is read-only: never
// released to a pool, never copied into, never assigned through an index.
// Whether pooled buffers are returned, and not touched after, is not a
// static question here: bufpool.Audit answers it where the code runs.
var Borrow = &Analyzer{
	Name: "borrow",
	Doc: `forbid releasing or writing the strip memory a read lends out

What a read returns is borrowed — a window of an immutable stored strip,
lent to the reader. That is every read: pfs.Server.LocalViewMany and
LocalRead on the holder, pfs.FileSystem.ReadStripFrom and ReadSpansFrom
from anywhere, a halo-cache Get, and the window pfs.Client.ReadLent hands
its callback and pfs.FileSystem.ReadStripFromTask its continuation (a
function literal, a named function or method value, or a func-typed
variable or field the callback is bound to first). Borrowed-ness follows
the value through the package: slicing, indexing, ranging and assignment,
a struct field it is stored in (readResp.Data, a signal payload's data
field), and the result of a function that returns it. It is a finding for
borrowed memory to reach a release call (bufpool.Pool.Put, grid.PutFloats,
the pfs.ReleaseBuffer shim kept for bench/), to be the destination of
copy, or to be assigned through an index: the first would hand a file's
contents to the pool, the other two would edit them in place.`,
	Run: runBorrow,
}

var (
	bufpoolPkg = ModulePath + "/internal/bufpool"
	pfsPkg     = ModulePath + "/internal/pfs"
	cachePkg   = ModulePath + "/internal/cache"
	gridPkg    = ModulePath + "/internal/grid"
)

// A funcName names a module function: recv is its receiver's type name,
// "" for a package-level function.
type funcName struct{ pkg, recv, name string }

func (f funcName) is(fn *types.Func) bool {
	if f.recv == "" {
		return pkgFuncIs(fn, f.pkg, f.name)
	}
	return methodIs(fn, f.pkg, f.recv, f.name)
}

// A lender lends stored strip memory: as its result 0 when arg < 0, else to
// parameter param of the callback it takes as argument arg.
type lender struct {
	funcName
	arg, param int
}

// lenders and releasers are the functions the rule keys on;
// TestBorrowTableNamesLiveFunctions fails when one of them is renamed away.
var (
	lenders = []lender{
		{funcName{pfsPkg, "Server", "view"}, -1, 0},
		{funcName{pfsPkg, "Server", "LocalViewMany"}, -1, 0},
		{funcName{pfsPkg, "Server", "LocalRead"}, -1, 0},
		{funcName{pfsPkg, "FileSystem", "ReadStripFrom"}, -1, 0},
		{funcName{pfsPkg, "FileSystem", "ReadSpansFrom"}, -1, 0},
		{funcName{cachePkg, "ServerCache", "Get"}, -1, 0},
		{funcName{cachePkg, "Manager", "Get"}, -1, 0},
		{funcName{pfsPkg, "Client", "ReadLent"}, 4, 1},
		{funcName{pfsPkg, "FileSystem", "ReadStripFromTask"}, 6, 0},
	}
	releasers = []funcName{
		{bufpoolPkg, "Pool", "Put"},
		{gridPkg, "", "PutFloats"},
		{pfsPkg, "", "ReleaseBuffer"},
	}
)

// lenderOf returns the lender call invokes, or nil.
func lenderOf(info *types.Info, call *ast.CallExpr) *lender {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	for i := range lenders {
		if lenders[i].is(fn) {
			return &lenders[i]
		}
	}
	return nil
}

// releases reports whether call returns its argument 0 to a pool.
func releases(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	for _, r := range releasers {
		if r.is(fn) {
			return true
		}
	}
	return false
}

// runBorrow enforces the read-only contract of lent store memory over one
// package's function declarations, nested closures included (they share
// their declaration's variables). It is flow-insensitive: a variable, a
// struct field or a function result that ever holds borrowed memory is
// borrowed throughout the package, which is how a window read in one
// function is still known when another takes it out of the message or
// signal payload it rode in.
func runBorrow(pass *Pass) error {
	info := pass.Info
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	borrowed := make(map[types.Object]bool)
	// holders are func-typed variables and fields a lender's callback is
	// taken from, with the callback parameter that receives the window.
	holders := make(map[types.Object]int)
	changed := true
	mark := func(obj types.Object) {
		if obj != nil && !borrowed[obj] && isBufferish(obj.Type()) {
			borrowed[obj] = true
			changed = true
		}
	}
	// object resolves a variable or a struct field, or returns nil.
	object := func(e ast.Expr) types.Object {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
		}
		return nil
	}
	// lendTo marks parameter param of the callback f borrowed, and makes the
	// variable or field f is read from a holder.
	lendTo := func(f ast.Expr, param int) {
		if sig, ok := typeOf(info, f).(*types.Signature); ok && param < sig.Params().Len() {
			mark(sig.Params().At(param))
		}
		if v, ok := object(f).(*types.Var); ok {
			if _, ok := holders[v]; !ok {
				holders[v] = param
				changed = true
			}
		}
	}
	// bindTo records that lhs, a variable or a field, takes the value rhs.
	var isBorrowed func(e ast.Expr) bool
	bindTo := func(lhs types.Object, rhs ast.Expr) {
		if param, ok := holders[lhs]; ok {
			lendTo(rhs, param)
		}
		if isBorrowed(rhs) {
			mark(lhs)
		}
	}
	// borrowedResult reports whether result i of call is borrowed: result 0
	// of a lender, or a result this package's own function returns borrowed
	// memory through.
	borrowedResult := func(call *ast.CallExpr, i int) bool {
		if l := lenderOf(info, call); l != nil {
			return l.arg < 0 && i == 0
		}
		if fn := calleeFunc(info, call); fn != nil {
			if res := fn.Type().(*types.Signature).Results(); i < res.Len() {
				return borrowed[res.At(i)]
			}
		}
		return false
	}
	// isBorrowed reports whether e is a borrowed result, a borrowed field,
	// or a window (x, x[i], x[a:b]) of a borrowed variable.
	isBorrowed = func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.CallExpr:
				return borrowedResult(x, 0)
			case *ast.Ident:
				return borrowed[info.ObjectOf(x)]
			case *ast.SelectorExpr:
				return borrowed[info.Uses[x.Sel]]
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	// assign binds each left-hand side to its value, spreading a call's
	// results over `a, b := f()`.
	assign := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && len(lhs) > 1 {
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				for i, l := range lhs {
					if borrowedResult(call, i) {
						mark(object(l))
					}
				}
				return
			}
		}
		for i, r := range rhs {
			if i < len(lhs) {
				if obj := object(lhs[i]); obj != nil {
					bindTo(obj, r)
				}
			}
		}
	}
	// propagate walks one function body; results are the result variables
	// its return statements feed (nil inside a closure, whose callers the
	// walk cannot name).
	var propagate func(body *ast.BlockStmt, results *types.Tuple)
	propagate = func(body *ast.BlockStmt, results *types.Tuple) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				propagate(n.Body, nil)
				return false
			case *ast.CallExpr:
				if l := lenderOf(info, n); l != nil && 0 <= l.arg && l.arg < len(n.Args) {
					lendTo(n.Args[l.arg], l.param)
				}
			case *ast.AssignStmt:
				assign(n.Lhs, n.Rhs)
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, name := range n.Names {
						lhs[i] = name
					}
					assign(lhs, n.Values)
				}
			case *ast.RangeStmt:
				if n.Value != nil && isBorrowed(n.X) {
					mark(object(n.Value))
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
								bindTo(v, kv.Value)
							}
						}
					}
				}
			case *ast.ReturnStmt:
				for i, r := range n.Results {
					if results != nil && i < results.Len() && isBorrowed(r) {
						mark(results.At(i))
					}
				}
			}
			return true
		})
	}
	for changed {
		changed = false
		for _, d := range decls {
			var results *types.Tuple
			if fn, ok := info.Defs[d.Name].(*types.Func); ok {
				results = fn.Type().(*types.Signature).Results()
			}
			propagate(d.Body, results)
		}
	}
	if len(borrowed) == 0 {
		return nil
	}

	const contract = "a read lends a window of the stored strip itself, read-only and never released"
	for _, d := range decls {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) == 0 || !isBorrowed(n.Args[0]) {
					return true
				}
				if releases(info, n) {
					pass.Reportf(n.Pos(), "borrowed strip memory released to a pool: %s", contract)
				} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin {
						pass.Reportf(n.Pos(), "borrowed strip memory is the destination of copy: %s", contract)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isBorrowed(ix.X) {
						pass.Reportf(lhs.Pos(), "borrowed strip memory is assigned through an index: %s", contract)
					}
				}
			case *ast.IncDecStmt:
				if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isBorrowed(ix.X) {
					pass.Reportf(n.X.Pos(), "borrowed strip memory is assigned through an index: %s", contract)
				}
			}
			return true
		})
	}
	return nil
}

// isBufferish reports whether t can hold strip memory: a slice of bytes or
// floats, or a slice of such slices (batched payloads).
func isBufferish(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	switch e := s.Elem().Underlying().(type) {
	case *types.Basic:
		return e.Kind() == types.Uint8 || e.Kind() == types.Float32 || e.Kind() == types.Float64
	case *types.Slice:
		if b, ok := e.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Uint8 || b.Kind() == types.Float32 || b.Kind() == types.Float64
		}
	}
	return false
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
