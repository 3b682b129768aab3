package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// PoolCheck enforces the transport buffer pool protocol: every
// transport.GetBuffer must be balanced by a transport.PutBuffer (or the
// buffer must be handed to another owner), PutBuffer must not run twice on
// the same buffer, and a buffer must not be used after it went back to the
// pool. The obligation follows the buffer through the
// wire.MarshalAppend(buf, v)-style grow-and-reassign idiom: a []byte
// argument to a []byte-returning call carries its obligation into the
// result. The classic leak this catches is
//
//	payload, err := wire.MarshalAppend(transport.GetBuffer(), req)
//	if err != nil {
//	        return err // the pooled buffer is unreachable and never put back
//	}
//
// because MarshalAppend returns (nil, err) on failure.
var PoolCheck = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "check transport.GetBuffer/PutBuffer pairing: leaked buffers on error " +
		"paths, double puts, and use after put",
	Run: runPoolCheck,
}

// pcBuf is one tracked pool checkout.
type pcBuf struct {
	pos ast.Node
}

// pcFlags is the per-path protocol state of one checkout.
type pcFlags struct {
	put      bool // put back on every way to reach this point
	maybePut bool // put back on some path (suppresses the leak report)
	escaped  bool // ownership handed off: returned, stored, passed, captured
}

type pcState map[*pcBuf]pcFlags

type pcScope struct {
	pass *analysis.Pass
	info *types.Info

	vars     map[types.Object]*pcBuf
	reported map[*pcBuf]bool
	gaveUp   bool
}

func runPoolCheck(pass *analysis.Pass) error {
	for _, body := range funcBodies(pass.Files) {
		s := &pcScope{
			pass:     pass,
			info:     pass.TypesInfo,
			vars:     make(map[types.Object]*pcBuf),
			reported: make(map[*pcBuf]bool),
		}
		walkFlow[pcState](s, body, make(pcState))
	}
	return nil
}

func (s *pcScope) Clone(st pcState) pcState {
	c := make(pcState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func (s *pcScope) GoTo() { s.gaveUp = true }

// DeferEvents: a deferred PutBuffer runs at return, not here, so it
// satisfies the put obligation (maybePut) without making later uses of the
// buffer in the body look like use-after-put.
func (s *pcScope) DeferEvents(call ast.Node, st pcState) {
	ast.Inspect(call, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			for obj := range identsUsed(s.info, x) {
				if b, ok := s.vars[obj]; ok {
					f := st[b]
					f.escaped = true
					st[b] = f
				}
			}
			return false
		case *ast.CallExpr:
			if isPkgFunc(s.info, x, transportPath, "PutBuffer") && len(x.Args) == 1 {
				if obj := rootObj(s.info, x.Args[0]); obj != nil {
					if b, ok := s.vars[obj]; ok {
						f := st[b]
						f.maybePut = true
						st[b] = f
					}
				}
				return true
			}
			// Any other deferred call owning the buffer discharges it.
			for _, arg := range x.Args {
				if obj := rootObj(s.info, arg); obj != nil {
					if b, ok := s.vars[obj]; ok {
						f := st[b]
						f.escaped = true
						st[b] = f
					}
				}
			}
		}
		return true
	})
}

// Join: put only if put on every falling-through branch that saw the
// checkout; maybePut and escaped if on any. A branch whose state lacks
// the key predates the checkout (it happened in a sibling branch) and
// does not vote.
func (s *pcScope) Join(st pcState, branches []pcState, terms []bool) {
	keys := make(map[*pcBuf]bool)
	for _, b := range branches {
		for k := range b {
			keys[k] = true
		}
	}
	for k := range keys {
		out := pcFlags{put: true}
		live := false
		for i, b := range branches {
			if terms[i] {
				continue
			}
			v, ok := b[k]
			if !ok {
				continue // branch predates this checkout
			}
			live = true
			out.put = out.put && v.put
			out.maybePut = out.maybePut || v.maybePut
			out.escaped = out.escaped || v.escaped
		}
		if !live {
			out = pcFlags{put: true, maybePut: true}
		}
		out.maybePut = out.maybePut || out.put
		st[k] = out
	}
}

func (s *pcScope) MergeLoop(st pcState, bodySt pcState) {
	for k, v := range bodySt {
		cur := st[k]
		cur.put = cur.put || v.put
		cur.maybePut = cur.maybePut || v.maybePut
		cur.escaped = cur.escaped || v.escaped
		st[k] = cur
	}
}

// AtReturn marks returned buffers as escaped (the caller owns them), then
// reports checkouts that leak on this path. A buffer returned through an
// append-family call — return append(out, p...) — escapes the same way:
// its backing memory is handed to the caller.
func (s *pcScope) AtReturn(st pcState, ret *ast.ReturnStmt) {
	if ret != nil {
		for _, r := range ret.Results {
			if obj := rootObj(s.info, r); obj != nil {
				if b, ok := s.vars[obj]; ok {
					f := st[b]
					f.escaped = true
					st[b] = f
				}
			}
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isAppendFamily(s.info, call) {
				for _, arg := range call.Args {
					if obj := rootObj(s.info, arg); obj != nil {
						if b, ok := s.vars[obj]; ok {
							f := st[b]
							f.escaped = true
							st[b] = f
						}
					}
				}
			}
		}
	}
	if s.gaveUp {
		return
	}
	for b, f := range st {
		if f.put || f.maybePut || f.escaped || s.reported[b] {
			continue
		}
		s.reported[b] = true
		s.pass.Reportf(b.pos.Pos(), "buffer from transport.GetBuffer can reach a return without transport.PutBuffer; the pooled buffer leaks")
	}
}

// Events extracts checkout/put/use/escape events in source order.
func (s *pcScope) Events(n ast.Node, st pcState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			// Captured buffers escape to the closure.
			for obj := range identsUsed(s.info, x) {
				if b, ok := s.vars[obj]; ok {
					f := st[b]
					f.escaped = true
					st[b] = f
				}
			}
			return false
		case *ast.AssignStmt:
			s.assign(x, st)
			return true
		case *ast.CallExpr:
			s.callEvents(x, st)
			return true
		}
		return true
	})
}

// assign tracks checkouts, obligation-carrying reassignment, copies, and
// stores.
func (s *pcScope) assign(a *ast.AssignStmt, st pcState) {
	// A buffer stored into a field/index escapes; writing INTO a put
	// buffer (buf[0] = x) is a use after put.
	for _, lhs := range a.Lhs {
		if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
			continue
		}
		if obj := rootObj(s.info, lhs); obj != nil {
			if b, ok := s.vars[obj]; ok && st[b].put {
				s.report(lhs, useAfterPut)
			}
		}
		for _, rhs := range a.Rhs {
			if obj := rootObj(s.info, rhs); obj != nil {
				if b, ok := s.vars[obj]; ok {
					f := st[b]
					f.escaped = true
					st[b] = f
				}
			}
		}
	}

	var fresh, carried *pcBuf
	for _, rhs := range a.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			fresh, carried = s.rhsObligation(call, st)
			break
		}
	}
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.info.ObjectOf(id)
		if obj == nil || !isByteSlice(obj.Type()) {
			continue
		}
		switch {
		case carried != nil:
			// buf, err = wire.MarshalAppend(buf, v): the result inherits
			// the argument's obligation.
			s.vars[obj] = carried
		case fresh != nil:
			s.vars[obj] = fresh
			st[fresh] = pcFlags{}
		default:
			if len(a.Rhs) == len(a.Lhs) {
				if src := rootObj(s.info, a.Rhs[i]); src != nil {
					if b, ok := s.vars[src]; ok {
						s.vars[obj] = b // copy shares tracking
						continue
					}
				}
			}
			// Unrelated reassignment: the variable no longer refers to the
			// checkout. If the checkout was still owed, it is now
			// unreachable and the leak is reported at the return points.
			delete(s.vars, obj)
		}
	}
}

// rhsObligation classifies a call on the right-hand side of an assignment:
// fresh when it checks a buffer out (transport.GetBuffer directly, or
// nested inside an append-family call: wire.MarshalAppend(
// transport.GetBuffer(), v)); carried when a tracked buffer flows through
// an append-family call into the result (buf, err =
// wire.MarshalAppend(buf, v)). Only append-family calls carry — a
// []byte-returning call like pool.Call(ctx, ep, payload) hands back a
// DIFFERENT buffer, and payload's obligation must stay on payload.
func (s *pcScope) rhsObligation(call *ast.CallExpr, st pcState) (fresh, carried *pcBuf) {
	if isPkgFunc(s.info, call, transportPath, "GetBuffer") {
		return &pcBuf{pos: call}, nil
	}
	if !isAppendFamily(s.info, call) {
		return nil, nil
	}
	for _, arg := range call.Args {
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if isPkgFunc(s.info, inner, transportPath, "GetBuffer") {
				return &pcBuf{pos: inner}, nil
			}
		}
		if obj := rootObj(s.info, arg); obj != nil {
			if b, ok := s.vars[obj]; ok && !st[b].put {
				return nil, b
			}
		}
	}
	return nil, nil
}

// isAppendFamily reports whether call grows-and-returns one of its slice
// arguments: the builtin append or wire.MarshalAppend.
func isAppendFamily(info *types.Info, call *ast.CallExpr) bool {
	if isPkgFunc(info, call, wirePath, "MarshalAppend") {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return b.Name() == "append"
		}
	}
	return false
}

// callEvents handles put, double put, use after put, and
// escape-by-argument.
func (s *pcScope) callEvents(call *ast.CallExpr, st pcState) {
	if isPkgFunc(s.info, call, transportPath, "PutBuffer") && len(call.Args) == 1 {
		if obj := rootObj(s.info, call.Args[0]); obj != nil {
			if b, ok := s.vars[obj]; ok {
				f := st[b]
				if f.put {
					s.report(call, "transport.PutBuffer is called twice on the same buffer")
					return
				}
				f.put = true
				f.maybePut = true
				st[b] = f
			}
		}
		return
	}
	carriesObligation := returnsByteSlice(s.info, call)
	for _, arg := range call.Args {
		obj := rootObj(s.info, arg)
		if obj == nil {
			continue
		}
		b, ok := s.vars[obj]
		if !ok {
			continue
		}
		f := st[b]
		if f.put {
			s.report(arg, useAfterPut)
			continue
		}
		// Passed to a callee that doesn't hand a []byte back: the callee
		// owns the buffer now (it may put it, send it, or retain it).
		if !carriesObligation {
			f.escaped = true
			st[b] = f
		}
	}
}

const useAfterPut = "buffer is used after transport.PutBuffer returned it to the pool"

func (s *pcScope) report(n ast.Node, msg string) {
	if s.gaveUp {
		return
	}
	s.pass.Reportf(n.Pos(), "%s", msg)
}

func isByteSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// returnsByteSlice reports whether any result of call is a []byte.
func returnsByteSlice(info *types.Info, call *ast.CallExpr) bool {
	t, ok := info.Types[call]
	if !ok {
		return false
	}
	if isByteSlice(t.Type) {
		return true
	}
	if tup, isTup := t.Type.(*types.Tuple); isTup {
		for i := 0; i < tup.Len(); i++ {
			if isByteSlice(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}
