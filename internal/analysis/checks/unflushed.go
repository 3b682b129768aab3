package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Unflushed flags a recorded batch with a path to a return on which
// neither Flush nor FlushAndContinue is ever called — recorded calls
// silently evaporate (and their futures stay pending forever). Modeled on
// vet's lostcancel: the analysis is function-local and path-sensitive over
// the AST's structured control flow (the shared flowClient walker). A
// batch that escapes — returned, passed to another function, stored into a
// composite, captured by a function literal — is assumed flushed by its
// new owner.
var Unflushed = &analysis.Analyzer{
	Name: "unflushed",
	Doc: "report batches (core.New, cluster.New, NewBatch<Iface>) that can reach a " +
		"return without Flush; their recorded calls never execute",
	Run: runUnflushed,
}

// ufBatch is one tracked batch creation.
type ufBatch struct {
	name string
	pos  ast.Node
}

// ufState is the per-path flush state of the tracked batches.
type ufState map[*ufBatch]bool // true = flushed (or escaped) on this path

type ufScope struct {
	pass *analysis.Pass
	info *types.Info

	vars     map[types.Object]*ufBatch
	violated map[*ufBatch]bool
	// gaveUp is set on control flow the walker does not model (goto);
	// everything is assumed flushed from there on.
	gaveUp bool
}

func runUnflushed(pass *analysis.Pass) error {
	for _, body := range funcBodies(pass.Files) {
		s := &ufScope{
			pass:     pass,
			info:     pass.TypesInfo,
			vars:     make(map[types.Object]*ufBatch),
			violated: make(map[*ufBatch]bool),
		}
		walkFlow[ufState](s, body, make(ufState))
	}
	return nil
}

func (s *ufScope) Clone(st ufState) ufState {
	c := make(ufState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func (s *ufScope) GoTo() { s.gaveUp = true }

// DeferEvents: a deferred Flush discharges like an inline one (it runs on
// every later return path), so defers get the ordinary event handling.
func (s *ufScope) DeferEvents(call ast.Node, st ufState) { s.Events(call, st) }

// Join merges branch states into st: a batch is flushed after the
// construct only if every falling-through branch flushed it. A branch
// whose state lacks the key predates the creation (the batch was created
// in a sibling branch) and contributes nothing — only the branches that
// actually saw the batch vote.
func (s *ufScope) Join(st ufState, branches []ufState, terms []bool) {
	keys := make(map[*ufBatch]bool)
	for _, b := range branches {
		for k := range b {
			keys[k] = true
		}
	}
	for k := range keys {
		flushed := true
		live := false
		for i, b := range branches {
			if terms[i] {
				continue // terminated branches don't fall through
			}
			v, ok := b[k]
			if !ok {
				continue // branch predates this creation
			}
			live = true
			flushed = flushed && v
		}
		if live {
			st[k] = flushed
		} else {
			st[k] = true // no falling-through branch saw it live
		}
	}
}

// MergeLoop folds a loop body's end state into st, assuming the body ran:
// flushes inside the loop count.
func (s *ufScope) MergeLoop(st ufState, bodySt ufState) {
	for k, v := range bodySt {
		if v {
			st[k] = true
		} else if _, ok := st[k]; !ok {
			st[k] = false
		}
	}
}

// AtReturn marks returned batches as escaped to the caller, then reports
// every batch still live and unflushed on this path. A return that hands
// back a non-nil error is a failure path: abandoning a batch there is the
// documented pattern (recorded calls are plain garbage, nothing to
// release), so those paths are not reported.
func (s *ufScope) AtReturn(st ufState, ret *ast.ReturnStmt) {
	if ret != nil {
		for _, r := range ret.Results {
			if obj := rootObj(s.info, r); obj != nil {
				if b, ok := s.vars[obj]; ok {
					st[b] = true
				}
			}
		}
		if returnsError(s.info, ret) {
			return
		}
	}
	if s.gaveUp {
		return
	}
	for b, flushed := range st {
		if flushed || s.violated[b] {
			continue
		}
		s.violated[b] = true
		s.pass.Reportf(b.pos.Pos(), "batch %s can reach a return without Flush or FlushAndContinue; its recorded calls never execute", b.name)
	}
}

// Events extracts creation/flush/escape events from an expression or
// simple statement, in source order. Nested function literals are opaque:
// captures escape.
func (s *ufScope) Events(n ast.Node, st ufState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			s.capture(x, st)
			return false
		case *ast.AssignStmt:
			s.assign(x, st)
			return true
		case *ast.ValueSpec:
			s.valueSpec(x, st)
			return true
		case *ast.CallExpr:
			s.callEvents(x, st)
			return true
		}
		return true
	})
}

// capture marks everything a function literal closes over as escaped.
func (s *ufScope) capture(lit *ast.FuncLit, st ufState) {
	for obj := range identsUsed(s.info, lit) {
		if b, ok := s.vars[obj]; ok {
			st[b] = true
		}
	}
}

// assign tracks batch creations and copies.
func (s *ufScope) assign(a *ast.AssignStmt, st ufState) {
	// A batch assigned into a field/index escapes.
	for _, lhs := range a.Lhs {
		if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
			for _, rhs := range a.Rhs {
				if obj := rootObj(s.info, rhs); obj != nil {
					if b, ok := s.vars[obj]; ok {
						st[b] = true
					}
				}
			}
			break
		}
	}

	var shared *ufBatch
	var sharedExisting bool
	for _, rhs := range a.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			shared, sharedExisting = s.creationOwner(call)
			break
		}
	}
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.info.ObjectOf(id)
		if obj == nil || !isBatchLike(obj.Type()) {
			continue
		}
		if shared != nil {
			s.vars[obj] = shared
			if !sharedExisting {
				if _, tracked := st[shared]; !tracked {
					st[shared] = false
				}
			}
			continue
		}
		// Plain copy: share the source's tracking.
		if len(a.Rhs) == len(a.Lhs) {
			if src := rootObj(s.info, a.Rhs[i]); src != nil {
				if b, ok := s.vars[src]; ok {
					s.vars[obj] = b
				}
			}
		}
	}
}

func (s *ufScope) valueSpec(v *ast.ValueSpec, st ufState) {
	// var b = core.New(...) — same shape as := with one call RHS.
	var shared *ufBatch
	var sharedExisting bool
	for _, rhs := range v.Values {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			shared, sharedExisting = s.creationOwner(call)
			break
		}
	}
	if shared == nil {
		return
	}
	for _, id := range v.Names {
		obj := s.info.ObjectOf(id)
		if obj == nil || !isBatchLike(obj.Type()) {
			continue
		}
		s.vars[obj] = shared
		if !sharedExisting {
			if _, tracked := st[shared]; !tracked {
				st[shared] = false
			}
		}
	}
}

// creationOwner decides what batch state a batch-returning call yields:
// an existing tracked batch when the call's receiver or an argument is one
// (b.Root(), NewBatchDirectory on a tracked batch's peer); a fresh
// creation only when the call mints an actual batch — a result typed
// core/cluster Batch or a generated wrapper — from non-batch inputs
// (core.New, cluster.New, NewBatch<Iface>). A call that merely derives a
// proxy/cursor from an untracked batch-like value (a parameter, a field)
// carries the caller's obligation, not a new one.
func (s *ufScope) creationOwner(call *ast.CallExpr) (b *ufBatch, existing bool) {
	if !returnsBatchLike(s.info, call) {
		return nil, false
	}
	derived := false
	if obj := chainBaseObj(s.info, call); obj != nil {
		if existing, ok := s.vars[obj]; ok {
			return existing, true
		}
		if isBatchLike(obj.Type()) {
			derived = true
		}
	}
	for _, arg := range call.Args {
		if obj := rootObj(s.info, arg); obj != nil {
			if existing, ok := s.vars[obj]; ok {
				return existing, true
			}
			if isBatchLike(obj.Type()) {
				derived = true
			}
		}
	}
	if derived || !returnsBatchMint(s.info, call) {
		return nil, false
	}
	fresh := &ufBatch{name: creationName(call), pos: call}
	return fresh, false
}

// returnsBatchMint reports whether a result of call is an actual batch
// (not a derived proxy/cursor): core/cluster Batch or a generated
// wrapper.
func returnsBatchMint(info *types.Info, call *ast.CallExpr) bool {
	t, ok := info.Types[call]
	if !ok {
		return false
	}
	if isBatchType(t.Type) {
		return true
	}
	if tup, isTup := t.Type.(*types.Tuple); isTup {
		for i := 0; i < tup.Len(); i++ {
			if isBatchType(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// callEvents handles flush and escape-by-argument.
func (s *ufScope) callEvents(call *ast.CallExpr, st ufState) {
	if recv, method, ok := methodCall(s.info, call); ok {
		if (method.Name() == "Flush" || method.Name() == "FlushAndContinue") && isBatchLike(s.info.Types[recv].Type) {
			if obj := chainBaseObj(s.info, recv); obj != nil {
				if b, tracked := s.vars[obj]; tracked {
					st[b] = true
				}
			}
			return
		}
		// Other method calls on a batch (Call, Root, PendingCalls...) are
		// recording, not discharging; only non-receiver argument passing
		// escapes below.
	}
	// A batch-returning call that CHAINS from a tracked batch shares state
	// (handled at assignment); a tracked batch passed as a plain argument
	// to a function that does not return a batch escapes to the callee.
	returnsBatch := returnsBatchLike(s.info, call)
	for _, arg := range call.Args {
		if obj := rootObj(s.info, arg); obj != nil {
			if b, ok := s.vars[obj]; ok && !returnsBatch {
				st[b] = true
			}
		}
	}
}

// returnsError reports whether the return statement hands back an error
// value that is not the literal nil — i.e. this is (at least potentially)
// a failure-path return. `return err`, `return fmt.Errorf(...)`, and
// `return x, err` qualify; `return nil` and `return x, nil` do not.
func returnsError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		r = ast.Unparen(r)
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			if _, isNil := info.ObjectOf(id).(*types.Nil); isNil {
				continue
			}
		}
		tv, ok := info.Types[r]
		if !ok || tv.Type == nil {
			continue
		}
		if types.Implements(tv.Type, errorIface) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// returnsBatchLike reports whether any result of call is batch-like.
func returnsBatchLike(info *types.Info, call *ast.CallExpr) bool {
	t, ok := info.Types[call]
	if !ok {
		return false
	}
	if isBatchLike(t.Type) {
		return true
	}
	if tup, isTup := t.Type.(*types.Tuple); isTup {
		for i := 0; i < tup.Len(); i++ {
			if isBatchLike(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func creationName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return "from " + f.Name
	case *ast.SelectorExpr:
		return "from " + exprString(f)
	}
	return "created here"
}
