package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Bufpool checks pooled-buffer ownership: every acquire must reach a
// matching release on all return paths of the function, or change owner
// through an explicitly annotated transfer; a buffer must not be used
// after its release; memory the strip store lends out must be neither
// released nor written; and a buffer lent to a band must outlive the
// band's last use.
var Bufpool = &Analyzer{
	Name: "bufpool",
	Doc: `require a Put on every return path for each bufpool Get, and no use after Put

Tracked acquire/release pairs: bufpool.Pool.Get/Put and grid.GetFloats/
PutFloats; pfs.ReleaseBuffer, a shim kept for bench/, counts as a release
so that reaching it is a finding. The check is per function: a buffer that
legitimately changes owner — returned to the caller, stored in a message,
handed to a struct — must be annotated at the escape site with
'//das:transfer -- reason', which makes the new owner responsible for the
Put. The analysis is a conservative walk of the function's statement
structure (if/for/switch joins, defers, early returns); when it cannot
prove a release on some path it says so rather than staying silent.

One more role has no release at all: what a read returns is borrowed — a
window of an immutable stored strip, lent to the reader. That is every
read: pfs.Server.LocalViewMany and LocalRead on the holder,
pfs.FileSystem.ReadStripFrom and ReadSpansFrom from anywhere, a halo-cache
Get. Borrowed-ness follows the value through the package: slicing,
indexing, ranging and assignment, a struct field it is stored in
(readResp.Data, a signal payload's data field), and the result of a
function that returns it. It is a finding for borrowed memory to reach a
release call, to be the destination of copy, or to be assigned through an
index: the first would hand a file's contents to the pool, the other two
would edit them in place.

pfs.Client.ReadLent hands the same windows to its callback, so the
callback's window parameter is borrowed too, and more narrowly: it may be
lent to a band (grid.Band.Lend) or copied out of, and that is all. Keeping
it — assigning it, or anything sliced from it, to a variable or field that
outlives the callback, or appending it to a slice — is a finding: a band is
the one holder of lent windows, and the lent-buffer rule below watches
bands only.

grid.Band.Lend and LendValues keep a view of the buffer they are given. A
borrowed chunk may be lent freely (it is never released); a pooled buffer
is held until the band is dropped: within the lending function (closures
included) a release of the lent buffer — or of anything it was sliced,
indexed, selected, ranged, appended or assigned from or to — that sits
after the lend and before the band's last use is a finding. Values read
out of another band (Span, Run, Writable) are that band's family, and its
Release, which returns the windows it allocated to the float pool, is a
release of them.`,
	Run: runBufpool,
}

var (
	bufpoolPkg = ModulePath + "/internal/bufpool"
	pfsPkg     = ModulePath + "/internal/pfs"
	cachePkg   = ModulePath + "/internal/cache"
	gridPkg    = ModulePath + "/internal/grid"
)

// poolRole classifies a call's part in the buffer lifecycle.
type poolRole int

const (
	roleNone    poolRole = iota
	roleAcquire          // returns a pooled buffer the caller now owns
	roleRelease          // arg 0 returns to the pool
	roleBorrow           // result 0 is a view of stored strips: read-only, never released
)

func classifyCall(pass *Pass, call *ast.CallExpr) poolRole {
	return classifyCallInfo(pass.Info, call)
}

func classifyCallInfo(info *types.Info, call *ast.CallExpr) poolRole {
	fn := calleeFunc(info, call)
	if fn == nil {
		return roleNone
	}
	switch {
	case methodIs(fn, bufpoolPkg, "Pool", "Get"),
		pkgFuncIs(fn, gridPkg, "GetFloats"):
		return roleAcquire
	case methodIs(fn, bufpoolPkg, "Pool", "Put"),
		pkgFuncIs(fn, pfsPkg, "ReleaseBuffer"),
		pkgFuncIs(fn, gridPkg, "PutFloats"):
		return roleRelease
	case methodIs(fn, pfsPkg, "Server", "view"),
		methodIs(fn, pfsPkg, "Server", "LocalViewMany"),
		methodIs(fn, pfsPkg, "Server", "LocalRead"),
		methodIs(fn, pfsPkg, "FileSystem", "ReadStripFrom"),
		methodIs(fn, pfsPkg, "FileSystem", "ReadSpansFrom"),
		methodIs(fn, cachePkg, "ServerCache", "Get"),
		methodIs(fn, cachePkg, "Manager", "Get"):
		return roleBorrow
	}
	return roleNone
}

func runBufpool(pass *Pass) error {
	switch pass.Pkg.Path() {
	case bufpoolPkg:
		return nil // the pool's own implementation hands slices across Get/Put by design
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Analyze each function literal and declaration independently: a
		// buffer acquired inside a closure must be settled inside it.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncBuffers(pass, n.Body)
					checkLends(pass, n.Body)
					decls = append(decls, n)
				}
			case *ast.FuncLit:
				checkFuncBuffers(pass, n.Body)
			}
			return true
		})
	}
	checkBorrows(pass, decls)
	return nil
}

// A trackedBuf is one acquire site bound to a local variable.
type trackedBuf struct {
	obj        types.Object
	acquire    *ast.CallExpr
	deferred   bool // a defer releases it on every exit
	inClosure  bool // a nested closure releases it; give up precise paths
	reported   bool
	releasedAt token.Pos // last release position on the current walk path
}

// bufState is the per-path ownership state of one tracked buffer.
type bufState int

const (
	bufLive     bufState = iota // acquired, not yet released on this path
	bufReleased                 // released on this path
	bufMaybe                    // released on some joined paths only
	bufDone                     // transferred, reassigned, or already reported
)

func (s bufState) join(o bufState) bufState {
	if s == o {
		return s
	}
	if s == bufDone || o == bufDone {
		return bufDone
	}
	return bufMaybe
}

// checkFuncBuffers finds acquire sites in body (ignoring nested function
// literals, which are analyzed separately) and runs the path walk for
// each.
func checkFuncBuffers(pass *Pass, body *ast.BlockStmt) {
	var bufs []*trackedBuf
	inspectShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || classifyCall(pass, call) != roleAcquire {
			return
		}
		if b := bindAcquire(pass, body, call); b != nil {
			bufs = append(bufs, b)
		}
	})
	for _, b := range bufs {
		checkBuffer(pass, body, b)
	}
}

// inspectShallow walks n but does not descend into function literals.
func inspectShallow(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			fn(m)
		}
		return true
	})
}

// bindAcquire resolves which local variable holds the buffer produced by
// call. An acquire that is immediately consumed by something other than
// an assignment needs a transfer annotation; that case is reported here
// and not tracked further.
func bindAcquire(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr) *trackedBuf {
	expr := ast.Expr(call)
	path, _ := astPath(body, call)
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		switch p := parent.(type) {
		case *ast.ParenExpr:
			expr = p
			continue
		case *ast.CallExpr:
			if classifyCall(pass, p) == roleRelease && len(p.Args) > 0 && ast.Unparen(p.Args[0]) == ast.Unparen(expr) {
				return nil // released on the spot (degenerate but legal)
			}
			// The buffer vanishes into an arbitrary call.
			reportEscape(pass, call, "passed to a function that keeps it")
			return nil
		case *ast.AssignStmt:
			if obj := assignTarget(pass, p, expr); obj != nil {
				return &trackedBuf{obj: obj, acquire: call}
			}
			reportEscape(pass, call, "assigned to a non-local destination")
			return nil
		case *ast.ValueSpec:
			for j, v := range p.Values {
				if ast.Unparen(v) == ast.Unparen(expr) && j < len(p.Names) {
					if obj := pass.Info.Defs[p.Names[j]]; obj != nil {
						return &trackedBuf{obj: obj, acquire: call}
					}
				}
			}
			reportEscape(pass, call, "bound outside a simple variable")
			return nil
		case *ast.ReturnStmt:
			reportEscape(pass, call, "returned to the caller")
			return nil
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "pooled buffer discarded: the Get result is never released")
			return nil
		default:
			// CompositeLit, KeyValueExpr, SendStmt, index, etc: the
			// buffer is stored somewhere the walk cannot follow.
			reportEscape(pass, call, "stored away at its acquire site")
			return nil
		}
	}
	return nil
}

func reportEscape(pass *Pass, call *ast.CallExpr, how string) {
	if pass.transferAt(call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"pooled buffer %s without a release; if ownership moves, annotate the line with //das:transfer -- reason",
		how)
}

// assignTarget returns the object of the plain identifier on the LHS
// matching expr's position on the RHS, or nil.
func assignTarget(pass *Pass, as *ast.AssignStmt, expr ast.Expr) types.Object {
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) != ast.Unparen(expr) || i >= len(as.Lhs) {
			continue
		}
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	return nil
}

// astPath returns the chain of nodes from root down to target.
func astPath(root ast.Node, target ast.Node) ([]ast.Node, bool) {
	var path []ast.Node
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			if !found {
				path = path[:len(path)-1]
			}
			return true
		}
		path = append(path, n)
		if n == target {
			found = true
			return false
		}
		return true
	})
	if !found {
		return nil, false
	}
	return path, true
}

// checkBuffer runs the conservative path walk for one tracked buffer.
func checkBuffer(pass *Pass, body *ast.BlockStmt, b *trackedBuf) {
	// A transfer annotation at the acquire site declares that ownership
	// leaves this function through a path the walk cannot follow.
	if pass.transferAt(b.acquire.Pos()) {
		return
	}
	// Deferred release anywhere in the function settles every path.
	inspectShallow(body, func(n ast.Node) {
		d, ok := n.(*ast.DeferStmt)
		if ok && releasesObj(pass, d.Call, b.obj) {
			b.deferred = true
		}
	})
	// A release inside a nested closure means ownership logic spans
	// functions; the per-path walk would only produce noise, so accept it
	// (the closure was written deliberately) and still check use-after.
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && releasesObj(pass, call, b.obj) {
				b.inClosure = true
			}
			return true
		})
		return false
	})
	if b.deferred || b.inClosure {
		return
	}
	w := &bufWalk{pass: pass, b: b}
	out, fallsThrough := w.stmts(body.List, bufDone)
	// The walk starts tracking at the acquire statement (state flips from
	// bufDone to bufLive there); falling off the end of the function body
	// is an implicit return.
	if fallsThrough {
		w.atExit(out, body.Rbrace)
	}
}

// releasesObj reports whether call releases the buffer held by obj.
func releasesObj(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	if classifyCall(pass, call) != roleRelease || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.Info.Uses[id] == obj
}

// usesObj reports whether n references obj outside nested closures.
func usesObj(pass *Pass, n ast.Node, obj types.Object) bool {
	used := false
	inspectShallow(n, func(m ast.Node) {
		if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
	})
	return used
}

// bufWalk is the statement-structure interpreter for one buffer.
type bufWalk struct {
	pass *Pass
	b    *trackedBuf
}

// atExit checks the buffer's state at a function exit point.
func (w *bufWalk) atExit(st bufState, pos token.Pos) {
	if w.b.reported {
		return
	}
	switch st {
	case bufLive:
		w.b.reported = true
		w.pass.Reportf(w.b.acquire.Pos(),
			"pooled buffer is not released on the return path at line %d; Put it on every path or annotate the escape with //das:transfer -- reason",
			w.pass.Fset.Position(pos).Line)
	case bufMaybe:
		w.b.reported = true
		w.pass.Reportf(w.b.acquire.Pos(),
			"pooled buffer may not be released on the return path at line %d (released on some branches only)",
			w.pass.Fset.Position(pos).Line)
	}
}

// stmts walks a statement list; returns the final state and whether
// control can fall through the end of the list.
func (w *bufWalk) stmts(list []ast.Stmt, st bufState) (bufState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if !term {
			return st, false
		}
	}
	return st, true
}

// stmt walks one statement; the bool is false when control cannot
// continue past it on any path (return, panic, branch).
func (w *bufWalk) stmt(s ast.Stmt, st bufState) (bufState, bool) {
	if w.b.reported {
		return bufDone, true
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ExprStmt:
		return w.simple(s, st), true
	case *ast.AssignStmt:
		return w.simple(s, st), true
	case *ast.DeclStmt:
		return w.simple(s, st), true
	case *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			return w.stmt(ls.Stmt, st)
		}
		return w.simple(s, st), true
	case *ast.ReturnStmt:
		st = w.simple(s, st)
		if st == bufLive || st == bufMaybe {
			// Returning the buffer itself is a transfer if annotated.
			for _, r := range s.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && w.pass.Info.Uses[id] == w.b.obj {
					if w.pass.transferAt(s.Pos()) {
						return bufDone, false
					}
				}
			}
			w.atExit(st, s.Pos())
		}
		return st, false
	case *ast.BranchStmt:
		// break/continue/goto: give up precise tracking of this path.
		return st, false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st = w.exprState(s.Cond, st)
		thenSt, thenFall := w.stmts(s.Body.List, st)
		elseSt, elseFall := st, true
		if s.Else != nil {
			elseSt, elseFall = w.stmt(s.Else, st)
		}
		switch {
		case thenFall && elseFall:
			return thenSt.join(elseSt), true
		case thenFall:
			return thenSt, true
		case elseFall:
			return elseSt, true
		default:
			return st, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.exprState(s.Cond, st)
		}
		bodySt, _ := w.stmts(s.Body.List, st)
		if s.Cond == nil && !loopCanExit(s.Body) {
			// `for {}` with no break: paths that park forever never
			// return, so the loop body's obligations are its own.
			return bodySt, false
		}
		return st.join(bodySt), true
	case *ast.RangeStmt:
		bodySt, _ := w.stmts(s.Body.List, w.exprState(s.X, st))
		return st.join(bodySt), true
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)
	case *ast.DeferStmt:
		return w.simple(s, st), true
	case *ast.GoStmt:
		return w.simple(s, st), true
	default:
		return w.simple(s, st), true
	}
}

// branches joins all case bodies of a switch/select with the entry state
// (a missing default keeps the entry state live).
func (w *bufWalk) branches(s ast.Stmt, st bufState) (bufState, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.exprState(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := bufState(-1)
	anyFall := false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			stmts = cs.Body
			if cs.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cs.Body
			if cs.Comm == nil {
				hasDefault = true
			} else {
				st, _ = w.stmt(cs.Comm, st)
			}
		}
		cSt, cFall := w.stmts(stmts, st)
		if cFall {
			anyFall = true
			if out == bufState(-1) {
				out = cSt
			} else {
				out = out.join(cSt)
			}
		}
	}
	if !hasDefault {
		if out == bufState(-1) {
			out = st
		} else {
			out = out.join(st)
		}
		anyFall = true
	}
	if out == bufState(-1) {
		return st, anyFall
	}
	return out, anyFall
}

// loopCanExit reports whether a for body contains a break/return that
// leaves the loop.
func loopCanExit(body *ast.BlockStmt) bool {
	can := false
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				can = true
			}
		case *ast.ReturnStmt:
			can = true
		}
	})
	return can
}

// simple handles a statement with no interesting control flow: acquire
// activation, release, reassignment, use-after-release, panic.
func (w *bufWalk) simple(s ast.Stmt, st bufState) bufState {
	return w.nodeState(s, st)
}

func (w *bufWalk) exprState(e ast.Expr, st bufState) bufState {
	if e == nil {
		return st
	}
	return w.nodeState(e, st)
}

// nodeState scans a leaf node for lifecycle events in source order.
func (w *bufWalk) nodeState(n ast.Node, st bufState) bufState {
	type event struct {
		pos  token.Pos
		kind int // 0 acquire, 1 release, 2 reassign, 3 use, 4 panic-or-exit
	}
	var events []event
	type span struct{ lo, hi token.Pos }
	var releaseSpans []span // idents inside a release call are not "uses"
	inspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			if m == w.b.acquire {
				events = append(events, event{m.Pos(), 0})
			} else if releasesObj(w.pass, m, w.b.obj) {
				events = append(events, event{m.Pos(), 1})
				releaseSpans = append(releaseSpans, span{m.Pos(), m.End()})
			} else if fn := calleeFunc(w.pass.Info, m); fn == nil {
				if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "panic" && w.pass.Info.Uses[id] == nil {
					events = append(events, event{m.Pos(), 4})
				}
			} else if pkgFuncIs(fn, "os", "Exit") {
				events = append(events, event{m.Pos(), 4})
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || w.pass.Info.Uses[id] != w.b.obj {
					continue
				}
				// v = append(v, ...) style self-updates keep tracking;
				// anything else re-binds the variable away from the pool.
				if i < len(m.Rhs) && usesObj(w.pass, m.Rhs[i], w.b.obj) {
					continue
				}
				events = append(events, event{lhs.Pos(), 2})
			}
		case *ast.Ident:
			if w.pass.Info.Uses[m] == w.b.obj {
				events = append(events, event{m.Pos(), 3})
			}
		}
	})
	// Source order approximates evaluation order well enough here.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	for _, ev := range events {
		if ev.kind == 3 {
			inRelease := false
			for _, sp := range releaseSpans {
				if ev.pos >= sp.lo && ev.pos < sp.hi {
					inRelease = true
				}
			}
			if inRelease {
				continue
			}
		}
		switch ev.kind {
		case 0:
			if st == bufDone {
				st = bufLive
			}
		case 1:
			switch st {
			case bufReleased:
				if !w.b.reported {
					w.b.reported = true
					w.pass.Reportf(ev.pos, "pooled buffer released twice (already Put at line %d)",
						w.pass.Fset.Position(w.b.releasedAt).Line)
				}
				return bufDone
			case bufLive, bufMaybe:
				w.b.releasedAt = ev.pos
				st = bufReleased
			}
			// A release before the acquire activates belongs to a
			// previous tenancy of the same variable: ignore.
		case 2:
			if st == bufLive && !w.b.reported && !w.pass.transferAt(ev.pos) {
				w.b.reported = true
				w.pass.Reportf(w.b.acquire.Pos(),
					"pooled buffer is overwritten at line %d before being released",
					w.pass.Fset.Position(ev.pos).Line)
				return bufDone
			}
			st = bufDone
		case 3:
			if st == bufReleased && !w.b.reported {
				w.b.reported = true
				w.pass.Reportf(ev.pos, "pooled buffer used after its Put at line %d",
					w.pass.Fset.Position(w.b.releasedAt).Line)
				return bufDone
			}
		case 4:
			// panic/os.Exit: the pool is process-local garbage anyway.
		}
	}
	return st
}

// checkBorrows enforces the read-only contract of lent store memory over
// one package's function declarations, nested closures included (they
// share their declaration's variables). It is flow-insensitive: a
// variable, a struct field or a function result that ever holds borrowed
// memory is borrowed throughout the package, which is how a window read in
// one function is still known when another takes it out of the message or
// signal payload it rode in.
func checkBorrows(pass *Pass, decls []*ast.FuncDecl) {
	info := pass.Info
	borrowed := make(map[types.Object]bool)
	// borrowedResult reports whether result i of call is borrowed: result 0
	// of a read, or a result this package's own function returns borrowed
	// memory through.
	borrowedResult := func(call *ast.CallExpr, i int) bool {
		if classifyCall(pass, call) == roleBorrow {
			return i == 0
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
	isBorrowed := func(e ast.Expr) bool {
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
	changed := true
	mark := func(obj types.Object) {
		if obj != nil && !borrowed[obj] && isBufferish(obj.Type()) {
			borrowed[obj] = true
			changed = true
		}
	}
	// bind makes lhs — a variable or a struct field — borrowed.
	bind := func(lhs ast.Expr) {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			mark(info.ObjectOf(x))
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				mark(v)
			}
		}
	}
	// assign binds each left-hand side whose value is borrowed, spreading
	// a call's results over `a, b := f()`.
	assign := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 {
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				for i, l := range lhs {
					if borrowedResult(call, i) {
						bind(l)
					}
				}
				return
			}
		}
		for i, r := range rhs {
			if i < len(lhs) && isBorrowed(r) {
				bind(lhs[i])
			}
		}
	}
	// callbacks are the function literals passed to the lending read.
	callbacks := make(map[*ast.FuncLit]bool)
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
				// The lending read's callback receives a window as its last
				// parameter, be the callback a literal or a named function.
				if !methodIs(calleeFunc(info, n), pfsPkg, "Client", "ReadLent") || len(n.Args) == 0 {
					break
				}
				each := ast.Unparen(n.Args[len(n.Args)-1])
				if lit, ok := each.(*ast.FuncLit); ok {
					callbacks[lit] = true
				}
				if sig, ok := typeOf(info, each).(*types.Signature); ok && sig.Params().Len() > 0 {
					mark(sig.Params().At(sig.Params().Len() - 1))
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
					bind(n.Value)
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && isBorrowed(kv.Value) {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
								mark(v)
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
		return
	}
	const contract = "a read lends a window of the stored strip itself, read-only and never released"
	for lit := range callbacks {
		// inside reports whether e is rooted in a variable the callback
		// declares, its parameters included.
		inside := func(e ast.Expr) bool {
			for _, obj := range rootObjects(info, e) {
				if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
					return true
				}
			}
			return false
		}
		kept := func(e ast.Expr) bool { return isBorrowed(e) && inside(e) }
		const keep = "a window lent to a read callback is kept past it: lend it to a band or copy out of it"
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					if i >= len(n.Lhs) || !kept(r) {
						continue
					}
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && (id.Name == "_" || inside(id)) {
						continue
					}
					pass.Reportf(n.Lhs[i].Pos(), keep)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); !ok || id.Name != "append" || n.Ellipsis.IsValid() {
					return true
				}
				for _, arg := range n.Args[1:] {
					if kept(arg) {
						pass.Reportf(arg.Pos(), keep)
					}
				}
			}
			return true
		})
	}
	for _, d := range decls {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) == 0 || !isBorrowed(n.Args[0]) {
					return true
				}
				if classifyCall(pass, n) == roleRelease {
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
}

// checkLends enforces that a buffer lent to a band — bytes by Lend, values
// by LendValues — is not released while the band still reads it, in one
// function declaration, nested closures included. Like checkBorrows it is
// flow-insensitive about which variable holds what — variables joined by
// an assignment, a range, a selection or an append are one buffer family,
// and so are a band and the values read out of it — and it orders the
// lend, the release and the band's last use by source position, which is
// how such code is written: assemble, run the kernel, drop the band,
// release.
func checkLends(pass *Pass, body *ast.BlockStmt) {
	bandMethod := func(call *ast.CallExpr, names ...string) (recv ast.Expr, ok bool) {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return nil, false
		}
		fn := calleeFunc(pass.Info, call)
		for _, name := range names {
			if methodIs(fn, gridPkg, "Band", name) {
				return sel.X, true
			}
		}
		return nil, false
	}
	// roots is rootObjects, seeing through the band methods that hand out
	// the band's memory to the band.
	roots := func(e ast.Expr) []types.Object {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if recv, ok := bandMethod(call, "Span", "Run", "Writable"); ok {
				return rootObjects(pass.Info, recv)
			}
		}
		return rootObjects(pass.Info, e)
	}

	type lend struct {
		band, buf types.Object
		pos       token.Pos
	}
	var lends []lend
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		recv, ok := bandMethod(call, "Lend", "LendValues")
		if !ok {
			return true
		}
		band, buf := rootObjects(pass.Info, recv), roots(call.Args[1])
		if len(band) == 1 && len(buf) == 1 {
			lends = append(lends, lend{band: band[0], buf: buf[0], pos: call.Pos()})
		}
		return true
	})
	if len(lends) == 0 {
		return
	}

	// family joins the variables a buffer can pass between.
	family := make(map[types.Object]types.Object)
	var find func(o types.Object) types.Object
	find = func(o types.Object) types.Object {
		if p, ok := family[o]; ok && p != o {
			family[o] = find(p)
			return family[o]
		}
		return o
	}
	join := func(lhs ast.Expr, rhs ...ast.Expr) {
		for _, l := range rootObjects(pass.Info, lhs) {
			for _, r := range rhs {
				for _, o := range roots(r) {
					family[find(l)] = find(o)
				}
			}
		}
	}
	lastUse := make(map[types.Object]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				join(n.Lhs[0], n.Rhs[0])
			} else {
				for i := range n.Rhs {
					join(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i < len(n.Names) {
					join(n.Names[i], v)
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				join(n.Value, n.X)
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil {
				lastUse[obj] = max(lastUse[obj], n.Pos())
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var released ast.Expr
		if recv, ok := bandMethod(call, "Release"); ok {
			released = recv // its own windows go to the float pool
		} else if len(call.Args) > 0 && classifyCall(pass, call) == roleRelease {
			released = call.Args[0]
		} else {
			return true
		}
		for _, obj := range rootObjects(pass.Info, released) {
			for _, l := range lends {
				if find(obj) == find(l.buf) && l.pos < call.Pos() && call.Pos() < lastUse[l.band] {
					pass.Reportf(call.Pos(),
						"buffer lent to a band at line %d is released while the band is still in use (line %d): Lend keeps a view, hold the buffer until the band is dropped",
						pass.Fset.Position(l.pos).Line, pass.Fset.Position(lastUse[l.band]).Line)
					return true
				}
			}
		}
		return true
	})
}

// rootObjects returns the variables e's value is taken from: the
// identifier under any selecting, indexing, slicing, dereferencing and
// parentheses, every argument of an append, every element of a composite
// literal. Values that cannot carry a buffer (numbers, strings, errors)
// have none.
func rootObjects(info *types.Info, e ast.Expr) []types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if v, ok := obj.(*types.Var); ok {
			switch v.Type().Underlying().(type) {
			case *types.Basic, *types.Interface, *types.Signature:
				return nil
			}
			return []types.Object{obj}
		}
	case *ast.SelectorExpr:
		return rootObjects(info, x.X)
	case *ast.IndexExpr:
		return rootObjects(info, x.X)
	case *ast.SliceExpr:
		return rootObjects(info, x.X)
	case *ast.StarExpr:
		return rootObjects(info, x.X)
	case *ast.UnaryExpr:
		return rootObjects(info, x.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				var out []types.Object
				for _, a := range x.Args {
					out = append(out, rootObjects(info, a)...)
				}
				return out
			}
		}
	case *ast.CompositeLit:
		var out []types.Object
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = append(out, rootObjects(info, el)...)
		}
		return out
	}
	return nil
}
