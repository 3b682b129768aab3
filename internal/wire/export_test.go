package wire

// Hooks for the external tests (package wire_test), which link the packages
// that register the protocol types.

const (
	KStd      = kStd
	KStrRef   = kStrRef
	KStrDelta = kStrDelta
	MaxDepth  = maxDepth
)

// SliceBomb is the 16 KiB nested-slice message of hostile_test.go.
func SliceBomb() []byte { return sliceBomb() }

// StandardTypes is a copy of the standard type table, in index order.
func StandardTypes() []string { return append([]string(nil), standardTypes[:]...) }

// RegisteredNames lists every wire name registered in this binary.
func RegisteredNames() []string {
	var names []string
	for name := range defaultRegistry.state.Load().byName {
		names = append(names, name)
	}
	return names
}
