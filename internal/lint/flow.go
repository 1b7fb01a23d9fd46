package lint

import (
	"go/ast"
	"go/types"
)

// The module ownership flow graph. Nodes stand for the places a pooled
// buffer can live — local variables, function parameters and results,
// struct fields — plus one distinguished sink for "returned to the pool".
// Edges follow value flow: assignment and extraction, call arguments into
// parameters, returns into results, stores into fields, appends into
// slices. A buffer hand-off is *discharged* when its node can reach the
// released sink: some owner, however many calls and messages away,
// eventually releases it.
//
// Struct-field nodes are keyed by type, not by instance, which is what
// lets a hand-off ride a message with no mailbox modeling at all: the
// producer stores into the message's field and the consumer loads from
// that field, and both sides meet at the same node. The graph is
// flow-insensitive and existential by design — "does any path in any new
// owner release this" — because the per-path, per-function discipline is
// already bufpool's job; transfer's job is making sure an annotated
// escape does not dead-end.

// A flowNode is one vertex of the ownership graph. kind 'o' is a local
// object (unique per source-checked package), 'p'/'r' are a function's
// parameter/result keyed by canonical function key (stable across the
// export-data import boundary), 'f' is a struct field keyed by type, and
// 'R' is the released sink.
type flowNode struct {
	kind byte
	obj  types.Object // 'o'
	fn   string       // 'p', 'r': canonical function key
	idx  int          // 'p', 'r': flat parameter/result index
	typ  string       // 'f': "pkgpath.TypeName"
	fld  string       // 'f': field name
}

var releasedNode = flowNode{kind: 'R'}

func objNode(o types.Object) flowNode       { return flowNode{kind: 'o', obj: o} }
func paramNode(key string, i int) flowNode  { return flowNode{kind: 'p', fn: key, idx: i} }
func resultNode(key string, i int) flowNode { return flowNode{kind: 'r', fn: key, idx: i} }

// fieldNode keys a field by the static type of the selector base, so
// producer stores and consumer loads land on the same node regardless of
// which package looks at the struct.
func fieldNode(info *types.Info, sel *ast.SelectorExpr) (flowNode, bool) {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return flowNode{}, false
	}
	tn := namedTypeName(typeOf(info, sel.X))
	if tn == nil || tn.Pkg() == nil {
		return flowNode{}, false
	}
	return flowNode{kind: 'f', typ: tn.Pkg().Path() + "." + tn.Name(), fld: sel.Sel.Name}, true
}

type flowGraph struct {
	edges map[flowNode][]flowNode
	reach map[flowNode]bool
}

func (g *flowGraph) edge(src, dst flowNode) {
	g.edges[src] = append(g.edges[src], dst)
}

// releases reports whether n can reach the released sink. The reachable
// set is computed once by reverse BFS; it is a set, so the map-iteration
// order of the build never shows in results.
func (g *flowGraph) releases(n flowNode) bool {
	if g.reach == nil {
		rev := make(map[flowNode][]flowNode)
		for src, dsts := range g.edges {
			for _, d := range dsts {
				rev[d] = append(rev[d], src)
			}
		}
		g.reach = map[flowNode]bool{releasedNode: true}
		queue := []flowNode{releasedNode}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range rev[cur] {
				if !g.reach[p] {
					g.reach[p] = true
					queue = append(queue, p)
				}
			}
		}
	}
	return g.reach[n]
}

// flowGraph builds (once) the ownership graph over every non-test
// function of the load.
func (m *moduleIndex) flowGraph() *flowGraph {
	if m.graph != nil {
		return m.graph
	}
	b := &flowBuilder{g: &flowGraph{edges: make(map[flowNode][]flowNode)}}
	for _, fi := range m.funcIndex() {
		b.declEdges(fi)
		b.scanBody(fi.pkg, fi, fi.decl.Body, collectClosures(fi.pkg.Info, fi.decl.Body))
	}
	m.graph = b.g
	return m.graph
}

type flowBuilder struct {
	g *flowGraph
}

// declEdges links a function's canonical parameter nodes to its local
// parameter objects (values arriving at call sites flow into the body)
// and its named result objects to its result nodes (naked returns).
func (b *flowBuilder) declEdges(fi *funcInfo) {
	info := fi.pkg.Info
	sig, ok := fi.fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, id := range flatFieldIdents(fi.decl.Type.Params) {
		if id == nil || i >= sig.Params().Len() || !isBufferish(sig.Params().At(i).Type()) {
			continue
		}
		if obj := info.Defs[id]; obj != nil {
			b.g.edge(paramNode(fi.key, i), objNode(obj))
		}
	}
	if fi.decl.Type.Results == nil {
		return
	}
	for i, id := range flatFieldIdents(fi.decl.Type.Results) {
		if id == nil || i >= sig.Results().Len() || !isBufferish(sig.Results().At(i).Type()) {
			continue
		}
		if obj := info.Defs[id]; obj != nil {
			b.g.edge(objNode(obj), resultNode(fi.key, i))
		}
	}
}

// scanBody adds edges for every statement of body. Function literals are
// scanned with no result context (a closure's returns stay local), but
// they share the enclosing declaration's closure bindings and local
// objects, which is how respond/fail-style helpers participate in the
// graph for free.
func (b *flowBuilder) scanBody(pkg *Package, fi *funcInfo, body *ast.BlockStmt, closures map[types.Object]*ast.FuncLit) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.scanBody(pkg, nil, n.Body, closures)
			return false
		case *ast.AssignStmt:
			b.assign(info, n)
		case *ast.ValueSpec:
			b.valueSpec(info, n)
		case *ast.ReturnStmt:
			b.returnStmt(info, fi, n)
		case *ast.CallExpr:
			b.callEdges(info, n, closures)
		case *ast.CompositeLit:
			b.composite(info, n)
		case *ast.RangeStmt:
			b.rangeStmt(info, n)
		}
		return true
	})
}

func (b *flowBuilder) assign(info *types.Info, s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		for i, lhs := range s.Lhs {
			if !isBufferish(typeOf(info, lhs)) {
				continue
			}
			dst, ok := b.destNode(info, lhs)
			if !ok {
				continue
			}
			for _, src := range b.srcAt(info, s.Rhs[0], i) {
				b.g.edge(src, dst)
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) || !isBufferish(typeOf(info, s.Rhs[i])) {
			continue
		}
		dst, ok := b.destNode(info, lhs)
		if !ok {
			continue
		}
		for _, src := range b.srcNodes(info, s.Rhs[i]) {
			b.g.edge(src, dst)
		}
	}
}

func (b *flowBuilder) valueSpec(info *types.Info, s *ast.ValueSpec) {
	for i, v := range s.Values {
		if i >= len(s.Names) || !isBufferish(typeOf(info, v)) {
			continue
		}
		obj := info.Defs[s.Names[i]]
		if obj == nil {
			continue
		}
		for _, src := range b.srcNodes(info, v) {
			b.g.edge(src, objNode(obj))
		}
	}
}

func (b *flowBuilder) returnStmt(info *types.Info, fi *funcInfo, s *ast.ReturnStmt) {
	if fi == nil || len(s.Results) == 0 {
		return
	}
	sig, ok := fi.fn.Type().(*types.Signature)
	if !ok {
		return
	}
	nr := sig.Results().Len()
	if len(s.Results) == 1 && nr > 1 {
		for i := 0; i < nr; i++ {
			if !isBufferish(sig.Results().At(i).Type()) {
				continue
			}
			for _, src := range b.srcAt(info, s.Results[0], i) {
				b.g.edge(src, resultNode(fi.key, i))
			}
		}
		return
	}
	for i, e := range s.Results {
		if i >= nr || !isBufferish(typeOf(info, e)) {
			continue
		}
		for _, src := range b.srcNodes(info, e) {
			b.g.edge(src, resultNode(fi.key, i))
		}
	}
}

// callEdges adds the statement-level edges of one call: releases into the
// sink, buffer arguments into callee parameter nodes (named functions) or
// closure parameter objects (local function literals).
func (b *flowBuilder) callEdges(info *types.Info, call *ast.CallExpr, closures map[types.Object]*ast.FuncLit) {
	switch classifyCallInfo(info, call) {
	case roleRelease:
		if len(call.Args) > 0 {
			for _, src := range b.srcNodes(info, call.Args[0]) {
				b.g.edge(src, releasedNode)
			}
		}
		return
	case roleAcquire:
		return
	}
	if fn := calleeFunc(info, call); fn != nil {
		key := funcKey(fn)
		sig, ok := fn.Type().(*types.Signature)
		if key == "" || !ok || sig.Params().Len() == 0 {
			return
		}
		np := sig.Params().Len()
		for i, a := range call.Args {
			if !isBufferish(typeOf(info, a)) {
				continue
			}
			j := i
			if j >= np {
				j = np - 1 // variadic tail
			}
			for _, src := range b.srcNodes(info, a) {
				b.g.edge(src, paramNode(key, j))
			}
		}
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	fl := closures[info.Uses[id]]
	if fl == nil {
		return
	}
	params := flatFieldIdents(fl.Type.Params)
	for i, a := range call.Args {
		if i >= len(params) || params[i] == nil || !isBufferish(typeOf(info, a)) {
			continue
		}
		pobj := info.Defs[params[i]]
		if pobj == nil {
			continue
		}
		for _, src := range b.srcNodes(info, a) {
			b.g.edge(src, objNode(pobj))
		}
	}
}

// composite adds field-store edges for struct literals: T{Data: buf}
// parks the buffer on the same node as an explicit x.Data = buf store.
func (b *flowBuilder) composite(info *types.Info, lit *ast.CompositeLit) {
	t := typeOf(info, lit)
	tn := namedTypeName(t)
	if tn == nil || tn.Pkg() == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		if named, isNamed := t.(*types.Named); isNamed {
			st, ok = named.Underlying().(*types.Struct)
		}
		if !ok {
			return
		}
	}
	typKey := tn.Pkg().Path() + "." + tn.Name()
	for i, elt := range lit.Elts {
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
		dst := flowNode{kind: 'f', typ: typKey, fld: name}
		for _, src := range b.srcNodes(info, val) {
			b.g.edge(src, dst)
		}
	}
}

func (b *flowBuilder) rangeStmt(info *types.Info, s *ast.RangeStmt) {
	id, ok := s.Value.(*ast.Ident)
	if !ok || !isBufferish(typeOf(info, id)) {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	for _, src := range b.srcNodes(info, s.X) {
		b.g.edge(src, objNode(obj))
	}
}

// srcNodes resolves the flow-graph sources of an expression: the nodes
// whose value e denotes. Extraction (indexing, slicing, field loads,
// type assertions) resolves to the container's node; calls to named
// functions resolve to the callee's result node.
func (b *flowBuilder) srcNodes(info *types.Info, e ast.Expr) []flowNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return []flowNode{objNode(v)}
		}
	case *ast.SelectorExpr:
		if n, ok := fieldNode(info, e); ok {
			return []flowNode{n}
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
			return []flowNode{objNode(v)} // package-level variable
		}
	case *ast.IndexExpr:
		if tv, ok := info.Types[e.X]; ok && tv.IsValue() {
			return b.srcNodes(info, e.X)
		}
	case *ast.SliceExpr:
		return b.srcNodes(info, e.X)
	case *ast.StarExpr:
		return b.srcNodes(info, e.X)
	case *ast.UnaryExpr:
		return b.srcNodes(info, e.X)
	case *ast.TypeAssertExpr:
		return b.srcNodes(info, e.X)
	case *ast.CallExpr:
		return b.callNodes(info, e, 0)
	case *ast.CompositeLit:
		// A slice literal of buffers denotes its elements.
		if _, ok := typeOfUnderlying(info, e).(*types.Slice); ok {
			var out []flowNode
			for _, elt := range e.Elts {
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					elt = kv.Value
				}
				out = append(out, b.srcNodes(info, elt)...)
			}
			return out
		}
	}
	return nil
}

// callNodes resolves result idx of a call expression: conversions forward
// their argument, append forwards all of them, named callees (acquires
// included) yield their result node.
func (b *flowBuilder) callNodes(info *types.Info, call *ast.CallExpr, idx int) []flowNode {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return b.srcNodes(info, call.Args[0])
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var out []flowNode
				for _, a := range call.Args {
					out = append(out, b.srcNodes(info, a)...)
				}
				return out
			}
			return nil
		}
	}
	if classifyCallInfo(info, call) == roleRelease {
		return nil
	}
	// Acquires resolve like any named call: linking result(GetFloats, 0)
	// to the caller's variable is what discharges the transfer directive
	// inside the acquire helper itself.
	if key := funcKey(calleeFunc(info, call)); key != "" {
		return []flowNode{resultNode(key, idx)}
	}
	return nil
}

// srcAt resolves position i of a multi-value right-hand side.
func (b *flowBuilder) srcAt(info *types.Info, e ast.Expr, i int) []flowNode {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return b.callNodes(info, call, i)
	}
	if i == 0 {
		return b.srcNodes(info, e)
	}
	return nil
}

// destNode resolves the flow-graph destination of an assignment target.
func (b *flowBuilder) destNode(info *types.Info, lhs ast.Expr) (flowNode, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return flowNode{}, false
		}
		obj := info.Defs[lhs]
		if obj == nil {
			obj = info.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok {
			return objNode(v), true
		}
	case *ast.SelectorExpr:
		if n, ok := fieldNode(info, lhs); ok {
			return n, true
		}
		if v, ok := info.Uses[lhs.Sel].(*types.Var); ok && !v.IsField() {
			return objNode(v), true
		}
	case *ast.IndexExpr:
		// out[i] = buf: the container holds the buffer.
		if nodes := b.srcNodes(info, lhs.X); len(nodes) == 1 {
			return nodes[0], true
		}
	}
	return flowNode{}, false
}

// collectClosures maps local variables bound to function literals,
// anywhere in body (nested closures included).
func collectClosures(info *types.Info, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	closures := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				fl, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					closures[obj] = fl
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				fl, ok := ast.Unparen(v).(*ast.FuncLit)
				if !ok || i >= len(n.Names) {
					continue
				}
				if obj := info.Defs[n.Names[i]]; obj != nil {
					closures[obj] = fl
				}
			}
		}
		return true
	})
	return closures
}

// flatFieldIdents flattens a field list to one ident per flat index
// (nil for unnamed fields), matching types.Signature indexing.
func flatFieldIdents(fl *ast.FieldList) []*ast.Ident {
	if fl == nil {
		return nil
	}
	var out []*ast.Ident
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, name)
		}
	}
	return out
}

// isBufferish reports whether t is a pooled-buffer-shaped type: a slice
// of bytes or floats, or a slice of such slices (batched payloads).
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
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func typeOfUnderlying(info *types.Info, e ast.Expr) types.Type {
	t := typeOf(info, e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}
