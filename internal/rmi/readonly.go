package rmi

import "sync"

// readonlyMethods records which methods of which remote interfaces were
// declared //brmi:readonly. brmigen emits the registrations from its
// parse-time-validated annotations, for tools and operators inspecting a
// deployment through IsReadOnly; the batch layers do not consult it, since
// generated stubs record a readonly method as CallRO directly. The
// declaration is a client visible contract — idempotent, side-effect free,
// result cacheable under a lease — not a server-enforced property; brmigen's
// validation is what keeps it honest at the type level (serializable result,
// no remote parameters).
var readonlyMethods sync.Map // iface + "\x00" + method -> struct{}

// RegisterReadOnly declares methods of the remote interface iface readonly
// (idempotent and cacheable). Generated code calls it from init; duplicate
// registration is harmless.
func RegisterReadOnly(iface string, methods ...string) {
	for _, m := range methods {
		readonlyMethods.Store(iface+"\x00"+m, struct{}{})
	}
}

// IsReadOnly reports whether iface's method was declared //brmi:readonly.
func IsReadOnly(iface, method string) bool {
	_, ok := readonlyMethods.Load(iface + "\x00" + method)
	return ok
}
