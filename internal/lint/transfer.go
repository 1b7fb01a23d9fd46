package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The transfer analyzer turns //das:transfer from an assertion into a
// checked obligation. A transfer directive says "the buffer escaping on
// this line changes owner"; bufpool believes it and stops tracking. This
// analyzer follows the hand-off instead: it locates the escape on the
// guarded line — a return, a store into a variable or struct field, a
// call argument, a composite-literal field — and asks the module
// ownership flow graph whether the receiving side can ever reach a pool
// release. A hand-off whose new owner never releases is a leak with an
// official-looking comment on it, which is worse than no comment.
var Transfer = &Analyzer{
	Name: "transfer",
	Doc: `verify that //das:transfer hand-offs are released by their new owner

(module analyzer) For every well-formed transfer directive, the escape on
the guarded line is resolved to its ownership-graph node (callee
parameter, caller result, struct field, stored variable) and checked for
reachability to a pool release anywhere in the module — through further
calls, returns, and struct fields carried by mailbox messages. An escape
with no releasing path is reported. Directives whose guarded line carries
no pooled-buffer escape at all are reported by the directive analyzer as
stale. Runs only in whole-module mode: the per-package vet protocol
cannot see across packages.`,
	RunModule: runTransfer,
}

func runTransfer(pass *ModulePass) error {
	byFile := make(map[string][]*directive)
	for _, dir := range pass.directives {
		if dir.kind == "transfer" && dir.bad == "" {
			byFile[dir.file] = append(byFile[dir.file], dir)
		}
	}
	if len(byFile) == 0 {
		return nil
	}
	b := &flowBuilder{g: pass.mod.flowGraph()}
	for _, fi := range pass.mod.funcIndex() {
		dirs := byFile[pass.Fset.Position(fi.decl.Pos()).Filename]
		if len(dirs) == 0 {
			continue
		}
		checkTransfers(pass, b, fi, dirs)
	}
	return nil
}

// checkTransfers resolves every escape on a transfer-guarded line of one
// function and reports the ones whose flow-graph node never reaches the
// released sink.
func checkTransfers(pass *ModulePass, b *flowBuilder, fi *funcInfo, dirs []*directive) {
	info := fi.pkg.Info
	closures := collectClosures(info, fi.decl.Body)
	covering := func(pos token.Pos) *directive {
		pp := pass.Fset.Position(pos)
		for _, dir := range dirs {
			if dir.covers(pp) {
				return dir
			}
		}
		return nil
	}
	verify := func(dir *directive, pos token.Pos, n flowNode, what string) {
		dir.resolved = true
		if !b.g.releases(n) {
			pass.Reportf(pos, "transferred buffer is never released by its new owner (%s)", what)
		}
	}

	var scan func(body *ast.BlockStmt, ret *funcInfo)
	scan = func(body *ast.BlockStmt, ret *funcInfo) {
		ast.Inspect(body, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit:
				scan(node.Body, nil)
				return false
			case *ast.AssignStmt:
				dir := covering(node.Pos())
				if dir == nil {
					return true
				}
				if len(node.Rhs) == 1 && len(node.Lhs) > 1 {
					for _, lhs := range node.Lhs {
						if !isBufferish(typeOf(info, lhs)) {
							continue
						}
						if dst, ok := b.destNode(info, lhs); ok {
							verify(dir, lhs.Pos(), dst, "stored value")
						}
					}
					return true
				}
				for i, lhs := range node.Lhs {
					if i >= len(node.Rhs) || !isBufferish(typeOf(info, node.Rhs[i])) {
						continue
					}
					if dst, ok := b.destNode(info, lhs); ok {
						verify(dir, lhs.Pos(), dst, "stored value")
					}
				}
			case *ast.ValueSpec:
				dir := covering(node.Pos())
				if dir == nil {
					return true
				}
				for i, v := range node.Values {
					if i >= len(node.Names) || !isBufferish(typeOf(info, v)) {
						continue
					}
					if obj := info.Defs[node.Names[i]]; obj != nil {
						verify(dir, node.Names[i].Pos(), objNode(obj), "stored value")
					}
				}
			case *ast.ReturnStmt:
				dir := covering(node.Pos())
				if dir == nil || len(node.Results) == 0 {
					return true
				}
				if ret == nil {
					// Closure returns stay local to the enclosing
					// declaration; the directive found its escape, but
					// verification happens at whatever the closure's
					// caller does with the value.
					dir.resolved = true
					return true
				}
				sig, ok := ret.fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				nr := sig.Results().Len()
				if len(node.Results) == 1 && nr > 1 {
					for i := 0; i < nr; i++ {
						if isBufferish(sig.Results().At(i).Type()) {
							verify(dir, node.Pos(), resultNode(ret.key, i), "returned value")
						}
					}
					return true
				}
				for i, e := range node.Results {
					if i >= nr || !isBufferish(typeOf(info, e)) {
						continue
					}
					verify(dir, e.Pos(), resultNode(ret.key, i), "returned value")
				}
			case *ast.CallExpr:
				dir := covering(node.Pos())
				if dir == nil {
					return true
				}
				switch classifyCallInfo(info, node) {
				case roleAcquire, roleRelease:
					return true
				}
				if fn := calleeFunc(info, node); fn != nil {
					key := funcKey(fn)
					sig, ok := fn.Type().(*types.Signature)
					if key == "" || !ok || sig.Params().Len() == 0 {
						return true
					}
					np := sig.Params().Len()
					for i, a := range node.Args {
						if !isBufferish(typeOf(info, a)) {
							continue
						}
						j := i
						if j >= np {
							j = np - 1
						}
						verify(dir, a.Pos(), paramNode(key, j), "argument")
					}
					return true
				}
				if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
					if fl := closures[info.Uses[id]]; fl != nil {
						params := flatFieldIdents(fl.Type.Params)
						for i, a := range node.Args {
							if i >= len(params) || params[i] == nil || !isBufferish(typeOf(info, a)) {
								continue
							}
							if pobj := info.Defs[params[i]]; pobj != nil {
								verify(dir, a.Pos(), objNode(pobj), "argument")
							}
						}
					}
				}
			case *ast.CompositeLit:
				dir := covering(node.Pos())
				if dir == nil {
					return true
				}
				t := typeOf(info, node)
				tn := namedTypeName(t)
				if tn == nil || tn.Pkg() == nil {
					return true
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				typKey := tn.Pkg().Path() + "." + tn.Name()
				for i, elt := range node.Elts {
					name := ""
					val := elt
					if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
						key, isID := kv.Key.(*ast.Ident)
						if !isID {
							continue
						}
						name, val = key.Name, kv.Value
					} else if i < st.NumFields() {
						name = st.Field(i).Name()
					}
					if name == "" || !isBufferish(typeOf(info, val)) {
						continue
					}
					verify(dir, val.Pos(), flowNode{kind: 'f', typ: typKey, fld: name}, "field value")
				}
			}
			return true
		})
	}
	scan(fi.decl.Body, fi)
}
