package lint

import (
	"go/ast"
	"go/types"
)

// Module-wide function index. Cross-package analysis cannot key on
// types.Object identity: each package of a load is type-checked from
// source while its imports resolve through export data, so the same
// function is a different *types.Func depending on which side of the
// import it is seen from. Canonical string keys — "pkgpath.Func" and
// "pkgpath.Type.Method" — are stable across that boundary and are what
// the reply summaries index by.

// moduleIndex is built once per CheckModule and shared by the module
// analyzers: the function index is constructed on first use.
type moduleIndex struct {
	pkgs  []*Package
	funcs map[string]*funcInfo
}

// funcInfo is one module function declaration with the package context
// needed to analyze its body.
type funcInfo struct {
	key  string
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func
}

// funcKey returns the canonical cross-package key for fn, or "" when fn
// has no package (builtins) or an unnameable receiver.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		tn := namedTypeName(sig.Recv().Type())
		if tn == nil {
			return ""
		}
		recv = tn.Name() + "."
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// namedTypeName resolves t (through pointers and instantiations) to the
// defining type name, or nil.
func namedTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// funcIndex builds (once) the map from canonical keys to module function
// declarations. Test files are excluded, matching every analyzer's scope.
func (m *moduleIndex) funcIndex() map[string]*funcInfo {
	if m.funcs != nil {
		return m.funcs
	}
	m.funcs = make(map[string]*funcInfo)
	for _, pkg := range m.pkgs {
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				if key == "" {
					continue
				}
				m.funcs[key] = &funcInfo{key: key, pkg: pkg, decl: fd, fn: fn}
			}
		}
	}
	return m.funcs
}
