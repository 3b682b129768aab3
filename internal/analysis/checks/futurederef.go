package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// FutureDeref flags reads of a future (Future.Get, Future.Err,
// TypedFuture.Get) that happen before the owning batch's Flush — the
// paper's core misuse, which today surfaces only as a runtime
// core.ErrPending. The analysis is function-local and follows source
// order: a future created in this function must not be read until its
// batch (or, when the owner can't be resolved, some batch) has flushed.
// Futures received as parameters, loaded from fields, or captured from an
// enclosing function are assumed settled by the caller and are not
// tracked; function literals are opaque (each is analyzed as its own
// scope) and defers run after the body, so neither contributes events.
var FutureDeref = &analysis.Analyzer{
	Name: "futurederef",
	Doc: "report future reads (Get/Err) reachable before the owning batch's Flush; " +
		"pre-flush reads return core.ErrPending at runtime",
	Run: runFutureDeref,
}

// fdOwner is the flush state of one batch as seen along the linear scan.
type fdOwner struct {
	flushed bool
}

type fdScope struct {
	info *types.Info
	pass *analysis.Pass

	owners  map[types.Object]*fdOwner
	futures map[types.Object]*fdOwner // future var -> owning batch (nil = unknown)
	// anyFlush records that some flush (or an escape that may flush)
	// happened; it settles futures whose owner could not be resolved.
	anyFlush bool
}

func runFutureDeref(pass *analysis.Pass) error {
	for _, body := range funcBodies(pass.Files) {
		s := &fdScope{
			info:    pass.TypesInfo,
			pass:    pass,
			owners:  make(map[types.Object]*fdOwner),
			futures: make(map[types.Object]*fdOwner),
		}
		s.scan(body, body)
	}
	return nil
}

// scan walks n in source order, dispatching events. root distinguishes the
// body being scanned from nested function literals, which are skipped.
func (s *fdScope) scan(root *ast.BlockStmt, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			if x.Body != root {
				s.opaque(x)
				return false
			}
		case *ast.DeferStmt:
			// Defers run at return, after any in-body flush; their flush
			// calls must not settle earlier reads, and their reads are
			// not pre-flush reads. Captures still escape.
			s.opaque(x)
			return false
		case *ast.AssignStmt:
			s.assign(x)
		case *ast.CallExpr:
			s.call(x)
		case *ast.ReturnStmt:
			// Returning a batch hands flushing to the caller.
			for _, r := range x.Results {
				if obj := rootObj(s.info, r); obj != nil {
					if o, ok := s.owners[obj]; ok {
						o.flushed = true
					}
				}
			}
		}
		return true
	})
}

// opaque processes a skipped subtree: anything it captures may be flushed
// or consumed by it, so tracked state mentioned inside stops being tracked.
func (s *fdScope) opaque(n ast.Node) {
	for obj := range identsUsed(s.info, n) {
		if o, ok := s.owners[obj]; ok {
			o.flushed = true
		}
		delete(s.futures, obj)
	}
}

// assign tracks future and batch bindings.
func (s *fdScope) assign(a *ast.AssignStmt) {
	// Tuple call assignment: one shared owner state for every batch-like
	// result (the NewBatch<Iface> wrapper returns both the wrapper and the
	// underlying *core.Batch).
	var sharedOwner *fdOwner
	for _, rhs := range a.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			sharedOwner = s.callOwner(call)
			break
		}
	}
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.info.ObjectOf(id)
		if obj == nil {
			continue
		}
		t := obj.Type()
		switch {
		case isBatchLike(t):
			if sharedOwner != nil {
				s.owners[obj] = sharedOwner
			} else if len(a.Rhs) == len(a.Lhs) {
				// Copy of an existing batch var shares its state.
				if src := rootObj(s.info, a.Rhs[i]); src != nil {
					if o, ok := s.owners[src]; ok {
						s.owners[obj] = o
						continue
					}
				}
				s.owners[obj] = &fdOwner{}
			} else {
				s.owners[obj] = &fdOwner{}
			}
		case isFutureType(t):
			s.futures[obj] = s.rhsFutureOwner(a, i)
		}
	}
}

// rhsFutureOwner resolves the owning batch of the future assigned to
// a.Lhs[i], or nil when unknown.
func (s *fdScope) rhsFutureOwner(a *ast.AssignStmt, i int) *fdOwner {
	var rhs ast.Expr
	if len(a.Rhs) == len(a.Lhs) {
		rhs = a.Rhs[i]
	} else if len(a.Rhs) == 1 {
		rhs = a.Rhs[0]
	} else {
		return nil
	}
	rhs = ast.Unparen(rhs)
	// Copy of a tracked future.
	if obj := rootObj(s.info, rhs); obj != nil {
		if o, ok := s.futures[obj]; ok {
			return o
		}
	}
	if call, ok := rhs.(*ast.CallExpr); ok {
		// core.Typed[T](fut) wraps an existing future; the wrapped
		// expression may itself be a recording call.
		if isPkgFunc(s.info, call, corePath, "Typed") && len(call.Args) == 1 {
			if obj := rootObj(s.info, call.Args[0]); obj != nil {
				return s.futures[obj]
			}
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				return s.callOwner(inner)
			}
		}
		return s.callOwner(call)
	}
	return nil
}

// callOwner resolves the batch a recording call belongs to: the tracked
// batch-like value at the root of the receiver chain (fut :=
// b.Call("m"), fut := wrapper.GetSize(), p := b.Root(ref)). Returns the
// existing state when the chain roots in a tracked batch; a fresh state
// when the call mints a new batch; nil when no batch is involved.
func (s *fdScope) callOwner(call *ast.CallExpr) *fdOwner {
	if obj := chainBaseObj(s.info, call); obj != nil {
		if o, ok := s.owners[obj]; ok {
			return o
		}
		if isBatchLike(obj.Type()) {
			o := &fdOwner{}
			s.owners[obj] = o
			return o
		}
	}
	// A call with a tracked batch argument shares that batch's state
	// (BatchDirectory(b), cluster helpers taking the batch).
	for _, arg := range call.Args {
		if obj := rootObj(s.info, arg); obj != nil {
			if o, ok := s.owners[obj]; ok {
				return o
			}
		}
	}
	if t, ok := s.info.Types[call]; ok {
		if isBatchLike(t.Type) {
			return &fdOwner{}
		}
		if tup, isTup := t.Type.(*types.Tuple); isTup {
			for i := 0; i < tup.Len(); i++ {
				if isBatchLike(tup.At(i).Type()) {
					return &fdOwner{}
				}
			}
		}
	}
	return nil
}

// call processes flush events, escapes, and the flagged reads.
func (s *fdScope) call(call *ast.CallExpr) {
	if recv, method, ok := methodCall(s.info, call); ok {
		recvType := s.info.Types[recv].Type
		switch method.Name() {
		case "Flush", "FlushAndContinue":
			if isBatchLike(recvType) {
				if obj := chainBaseObj(s.info, recv); obj != nil {
					if o, ok := s.owners[obj]; ok {
						o.flushed = true
						return
					}
				}
				// Flush on something we don't track (field, parameter):
				// settles everything, conservatively.
				s.anyFlush = true
				for _, o := range s.owners {
					o.flushed = true
				}
				return
			}
		case "Get", "Err":
			if isFutureType(recvType) {
				s.read(call, recv)
			}
		}
	}
	// A tracked batch passed as an argument escapes: the callee may flush
	// it. So does a tracked future — unless the callee is a recorder (a
	// method of a batch, proxy or generated wrapper): a future is a legal
	// argument of a recorded call, the flush splices its value in, and
	// recording it settles nothing the client could read.
	recording := false
	if recv, _, ok := methodCall(s.info, call); ok {
		recording = isBatchLike(s.info.Types[recv].Type)
	}
	for _, arg := range call.Args {
		if obj := rootObj(s.info, arg); obj != nil {
			if o, ok := s.owners[obj]; ok {
				o.flushed = true
			}
			if !recording {
				delete(s.futures, obj)
			}
		}
	}
}

// read flags a pre-flush future read.
func (s *fdScope) read(call *ast.CallExpr, recv ast.Expr) {
	recv = ast.Unparen(recv)
	// tf.Future().Get() reads through the typed wrapper.
	if c := callOrSelf(recv); c != nil {
		if inner, method, ok := methodCall(s.info, c); ok && method.Name() == "Future" {
			recv = inner
		}
	}
	if obj := rootObj(s.info, recv); obj != nil {
		owner, tracked := s.futures[obj]
		if !tracked {
			return // parameter, field, captured: assumed settled
		}
		if owner != nil {
			if !owner.flushed {
				s.pass.Reportf(call.Pos(), "future %s is read before the owning batch's Flush (returns core.ErrPending at runtime)", exprString(recv))
			}
			return
		}
		if !s.anyFlush && !s.someFlushed() {
			s.pass.Reportf(call.Pos(), "future %s is read before any Flush in this function", exprString(recv))
		}
		return
	}
	// Chained read: batch.Call("m").Get() with no variable in between.
	if c := chainCall(recv); c != nil {
		if owner := s.callOwner(c); owner != nil && !owner.flushed {
			s.pass.Reportf(call.Pos(), "future is read in the same expression that records it — no Flush can have run")
		}
	}
}

func (s *fdScope) someFlushed() bool {
	for _, o := range s.owners {
		if o.flushed {
			return true
		}
	}
	return false
}

// callOrSelf returns the receiver as a call expression when it is one.
func callOrSelf(e ast.Expr) *ast.CallExpr {
	if c, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return c
	}
	return nil
}

// chainCall digs the innermost call of a chained receiver expression.
func chainCall(e ast.Expr) *ast.CallExpr {
	if c, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return c
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	}
	return "value"
}
