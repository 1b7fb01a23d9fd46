package lint

import (
	"go/importer"
	"go/token"
	"go/types"
	"testing"
)

// TestBorrowTableNamesLiveFunctions: the borrow rule keys on functions by
// name, so a rename would switch it off without a word. Every function its
// tables name exists in the module with the shape the rule assumes: a
// lender's windows are byte slices, as its result 0 or as the named
// parameter of the callback it takes; a releaser takes the slice first.
func TestBorrowTableNamesLiveFunctions(t *testing.T) {
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
	lookup := func(f funcName) *types.Signature {
		t.Helper()
		pkg, err := imp.Import(f.pkg)
		if err != nil {
			t.Fatalf("import %s: %v", f.pkg, err)
		}
		var obj types.Object
		if f.recv == "" {
			obj = pkg.Scope().Lookup(f.name)
		} else if tn, ok := pkg.Scope().Lookup(f.recv).(*types.TypeName); ok {
			obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pkg, f.name)
		}
		fn, ok := obj.(*types.Func)
		if !ok || !f.is(fn) {
			t.Errorf("%s.%s.%s: no such function in the module", f.pkg, f.recv, f.name)
			return nil
		}
		return fn.Type().(*types.Signature)
	}
	window := func(tup *types.Tuple, i int) bool { return i < tup.Len() && isBufferish(tup.At(i).Type()) }

	for _, l := range lenders {
		sig := lookup(l.funcName)
		if sig == nil {
			continue
		}
		if l.arg < 0 {
			if !window(sig.Results(), 0) {
				t.Errorf("%s.%s: result 0 is not the lent window", l.recv, l.name)
			}
			continue
		}
		var cb *types.Signature
		if l.arg < sig.Params().Len() {
			cb, _ = sig.Params().At(l.arg).Type().(*types.Signature)
		}
		if cb == nil || !window(cb.Params(), l.param) {
			t.Errorf("%s.%s: argument %d is not a callback taking the lent window as parameter %d", l.recv, l.name, l.arg, l.param)
		}
	}
	for _, r := range releasers {
		if sig := lookup(r); sig != nil && sig.Params().Len() == 0 {
			t.Errorf("%s.%s: takes no slice to release", r.recv, r.name)
		}
	}
}
