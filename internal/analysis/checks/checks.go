// Package checks implements the brmivet analyzer suite: five static
// analyzers that enforce the batching programming model's usage rules at
// build time instead of runtime (or never). See DESIGN.md "Static
// analysis" for what each analyzer enforces and how to add one.
//
//   - futurederef — a future read (Get/Err) before the owning batch flushes
//   - unflushed   — a recorded batch that can reach a return unflushed
//   - readonlypure — a //brmi:readonly implementation that mutates state
//   - poolcheck   — transport.GetBuffer/PutBuffer pairing
//   - wireregister — struct types crossing the wire without wire.Register
package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Suite returns the canonical brmivet analyzer set, in the order brmivet
// runs and documents them. cmd/brmivet registers exactly this slice; the
// meta-test in cmd/brmivet pins the set.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		FutureDeref,
		Unflushed,
		ReadonlyPure,
		PoolCheck,
		WireRegister,
	}
}

// Import paths of the packages whose types the analyzers recognize.
const (
	corePath      = "repro/internal/core"
	clusterPath   = "repro/internal/cluster"
	transportPath = "repro/internal/transport"
	wirePath      = "repro/internal/wire"
	rmiPath       = "repro/internal/rmi"
)

// namedType returns the named type of t with aliases resolved and pointers
// stripped, or nil. Generic instantiations resolve to their origin.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return n.Origin()
}

// isNamed reports whether t (under pointers/aliases) is the named type
// path.name.
func isNamed(t types.Type, path, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// isFutureType reports whether t is one of the model's future types:
// core/cluster Future (usually *Future) or TypedFuture.
func isFutureType(t types.Type) bool {
	return isNamed(t, corePath, "Future") || isNamed(t, corePath, "TypedFuture") ||
		isNamed(t, clusterPath, "Future") || isNamed(t, clusterPath, "TypedFuture")
}

// isBatchType reports whether t is an actual batch: a core/cluster Batch
// or a brmigen-generated batch wrapper (recognized structurally by its
// reserved Flush + BatchProxy methods) — but not a proxy or cursor
// derived from one.
func isBatchType(t types.Type) bool {
	if isNamed(t, corePath, "Batch") || isNamed(t, clusterPath, "Batch") {
		return true
	}
	n := namedType(t)
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	return lookupMethod(ms, "Flush") && lookupMethod(ms, "BatchProxy")
}

// isBatchLike reports whether t records calls for a flush: a core/cluster
// Batch, the recording proxies and cursors, or a brmigen-generated batch
// wrapper (recognized structurally by its reserved Flush + BatchProxy
// methods).
func isBatchLike(t types.Type) bool {
	if isNamed(t, corePath, "Batch") || isNamed(t, corePath, "Proxy") || isNamed(t, corePath, "Cursor") ||
		isNamed(t, clusterPath, "Batch") || isNamed(t, clusterPath, "Proxy") {
		return true
	}
	n := namedType(t)
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	return lookupMethod(ms, "Flush") && lookupMethod(ms, "BatchProxy")
}

// isSpliceNative reports whether values of t are handled specially by the
// call recorders and the rmi marshaller instead of the generic struct
// codec: batch proxies/cursors/futures are spliced into the plan, and
// rmi ref-holders (Ref() wire.Ref) and remote objects (rmi.RemoteBase)
// travel as a wire.Ref.
func isSpliceNative(t types.Type) bool {
	if isBatchLike(t) || isFutureType(t) {
		return true
	}
	n := namedType(t)
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		switch m.Name() {
		case "remoteObject":
			return true
		case "Ref":
			if sig, ok := m.Type().(*types.Signature); ok &&
				sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				isNamed(sig.Results().At(0).Type(), wirePath, "Ref") {
				return true
			}
		}
	}
	return false
}

func lookupMethod(ms *types.MethodSet, name string) bool {
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// methodCall decomposes call into a method invocation: the receiver
// expression and the selected method object. ok is false for ordinary
// (package-level) function calls.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method *types.Func, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn {
		return nil, nil, false
	}
	return sel.X, fn, true
}

// calledFunc resolves call to the package-level function it invokes
// (through generic instantiation), or nil for method calls and non-ident
// callees.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation f[T](...)
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		if _, isMethod := info.Selections[f]; isMethod {
			return nil
		}
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes the package-level function
// path.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == path && fn.Name() == name
}

// rootObj walks to the base identifier of an expression (through selectors,
// indexing, derefs, parens, and type assertions) and returns its object,
// or nil when the expression is not rooted in a plain identifier.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// chainBaseObj walks to the base of a call chain: for
// batch.Root(ref).Call("m") it returns batch's object. It descends through
// method-call receivers as well as the selector forms rootObj handles.
func chainBaseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return rootObj(info, x)
		}
	}
}

// funcBodies yields every function body in the files: declarations and
// function literals, each analyzed as its own scope by the flow-local
// analyzers.
func funcBodies(files []*ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
	}
	return bodies
}

// identsUsed collects the objects of every identifier mentioned inside n.
func identsUsed(info *types.Info, n ast.Node) map[types.Object]bool {
	used := make(map[types.Object]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				used[obj] = true
			}
		}
		return true
	})
	return used
}
