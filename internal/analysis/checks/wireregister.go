package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/brmimark"
)

// WireRegister checks that every named struct type crossing the wire — as
// an argument to a recording call (Proxy.Call, CallRO, CallBatch,
// CallCursor, Peer.Call) or as a parameter/result of a //brmi:remote
// interface method — is registered with the wire codec
// (wire.Register, MustRegister, RegisterError, RegisterCompiled).
// An unregistered type encodes fine on the sender (encode is reflective)
// but the receiver cannot decode it: the call fails at runtime with an
// unknown-type error, typically only on the first code path that ships the
// type. Registrations are collected per package and exported as a fact, so
// a type registered by its declaring package's init is recognized at call
// sites in any importing package.
var WireRegister = &analysis.Analyzer{
	Name: "wireregister",
	Doc: "report struct types passed in remote calls without a wire.Register " +
		"registration; the receiver cannot decode them",
	Run: runWireRegister,
}

// RegisteredFact is the package fact wireregister exports: the
// package-path-qualified names of the types the package registers with the
// wire codec.
type RegisteredFact struct {
	Types []string
}

// wireNative lists named types the codec handles without registration, in
// "pkgpath.Name" form. Basic types, []byte, strings etc. never reach the
// struct check.
var wireNative = map[string]bool{
	"time.Time":               true,
	wirePath + ".Ref":         true,
	wirePath + ".RemoteError": true,
}

// recordingMethods are the proxy methods whose variadic arguments are
// wire-encoded. The value is the index of the first encoded argument.
var recordingMethods = map[string]int{
	"Call": 1, "CallRO": 1, "CallBatch": 1, "CallCursor": 1,
}

func runWireRegister(pass *analysis.Pass) error {
	registered := collectRegistrations(pass)
	if len(registered) > 0 {
		fact := RegisteredFact{Types: make([]string, 0, len(registered))}
		for k := range registered {
			fact.Types = append(fact.Types, k)
		}
		sort.Strings(fact.Types)
		pass.ExportPackageFact(&fact)
	}
	for _, imp := range pass.Pkg.Imports() {
		var fact RegisteredFact
		if pass.ImportPackageFact(imp.Path(), &fact) {
			for _, k := range fact.Types {
				registered[k] = true
			}
		}
	}

	w := &wrScope{pass: pass, registered: registered, seen: map[string]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				w.checkCall(call)
			}
			return true
		})
		w.checkRemoteIfaces(f)
	}
	return nil
}

// collectRegistrations finds the wire registrations made by this unit and
// returns the qualified names of the registered types.
func collectRegistrations(pass *analysis.Pass) map[string]bool {
	registered := make(map[string]bool)
	add := func(t types.Type) {
		if n := namedType(t); n != nil {
			registered[typeKey(n)] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != wirePath {
				return true
			}
			switch fn.Name() {
			case "Register", "MustRegister", "RegisterError", "MustRegisterError":
				if len(call.Args) >= 2 {
					add(pass.TypesInfo.Types[call.Args[1]].Type)
				}
			case "RegisterCompiled", "MustRegisterCompiled":
				// The registered type is the instantiation's type argument.
				if id := calleeIdent(call); id != nil {
					if inst, ok := pass.TypesInfo.Instances[id]; ok && inst.TypeArgs.Len() > 0 {
						add(inst.TypeArgs.At(0))
					}
				}
			}
			return true
		})
	}
	return registered
}

type wrScope struct {
	pass       *analysis.Pass
	registered map[string]bool
	seen       map[string]bool // "filepos|typekey" report de-dup
}

// checkCall inspects the encoded arguments of a recording call.
func (w *wrScope) checkCall(call *ast.CallExpr) {
	recv, method, ok := methodCall(w.pass.TypesInfo, call)
	if !ok {
		return
	}
	first, isRecording := recordingMethods[method.Name()]
	if !isRecording {
		return
	}
	recvType := w.pass.TypesInfo.Types[recv].Type
	switch {
	case isNamed(recvType, corePath, "Proxy") || isNamed(recvType, clusterPath, "Proxy"):
	case method.Name() == "Call" && isNamed(recvType, rmiPath, "Peer"):
		first = 3 // Call(ctx, ref, method, args...)
	default:
		return
	}
	for i, arg := range call.Args {
		if i < first {
			continue
		}
		t := w.pass.TypesInfo.Types[arg].Type
		w.checkType(arg.Pos(), t, func(key string) string {
			return fmt.Sprintf("%s is passed to %s but never registered with wire.Register; the receiver cannot decode it", key, method.Name())
		})
	}
}

// checkRemoteIfaces checks the parameter and result types of every
// //brmi:remote interface method in f.
func (w *wrScope) checkRemoteIfaces(f *ast.File) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if _, remote := brmimark.Has(brmimark.Remote, gd.Doc, ts.Doc); !remote {
				continue
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				continue
			}
			for _, m := range it.Methods.List {
				if len(m.Names) == 0 {
					continue
				}
				ft, ok := m.Type.(*ast.FuncType)
				if !ok {
					continue
				}
				iface, method := ts.Name.Name, m.Names[0].Name
				report := func(key string) string {
					return fmt.Sprintf("%s crosses the wire in //brmi:remote method %s.%s but is never registered with wire.Register", key, iface, method)
				}
				for _, p := range ft.Params.List {
					w.checkType(p.Type.Pos(), w.pass.TypesInfo.Types[p.Type].Type, report)
				}
				if ft.Results != nil {
					for _, r := range ft.Results.List {
						w.checkType(r.Type.Pos(), w.pass.TypesInfo.Types[r.Type].Type, report)
					}
				}
			}
		}
	}
}

// checkType reports the named struct types inside t (under pointers,
// slices, arrays, and maps) that lack a wire registration.
func (w *wrScope) checkType(pos token.Pos, t types.Type, msg func(key string) string) {
	if t == nil {
		return
	}
	switch x := types.Unalias(t).(type) {
	case *types.Pointer:
		w.checkType(pos, x.Elem(), msg)
		return
	case *types.Slice:
		w.checkType(pos, x.Elem(), msg)
		return
	case *types.Array:
		w.checkType(pos, x.Elem(), msg)
		return
	case *types.Map:
		w.checkType(pos, x.Key(), msg)
		w.checkType(pos, x.Elem(), msg)
		return
	}
	n := namedType(t)
	if n == nil {
		return
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return
	}
	if isSpliceNative(n) {
		return
	}
	key := typeKey(n)
	if wireNative[key] || w.registered[key] {
		return
	}
	dedup := fmt.Sprintf("%d|%s", pos, key)
	if w.seen[dedup] {
		return
	}
	w.seen[dedup] = true
	w.pass.Reportf(pos, "%s", msg(key))
}

// typeKey renders a named type as "pkgpath.Name".
func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeIdent returns the identifier of the called function, through
// explicit instantiation and package selectors.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}
