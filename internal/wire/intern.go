package wire

import "sync"

// intern.go: a bounded string-interning table for decoded strings. The
// protocol re-transmits the same short strings constantly — method names,
// wire type names, interface names, endpoints — and every decode used to
// allocate a fresh copy. Interning returns the shared instance instead;
// strings are immutable, so sharing is safe. The table is capacity-bounded:
// once a shard fills, unknown strings decode with a plain allocation (a
// lookup miss costs one RLock probe), so unbounded unique payload data
// cannot grow the table.

const (
	internShards     = 16
	maxInternLen     = 64
	maxInternPerSlot = 2048
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var internTab [internShards]internShard

// internBytes returns the canonical string for b, entering b in the table
// when it is new and its shard has room.
func internBytes(b []byte) string { return intern(b, true) }

// knownBytes returns the canonical string for b when the table holds one,
// and a copy of b otherwise, which it does not enter: a front-coded string
// costs its sender a few bytes, too few to pay for a table entry that
// outlives the message.
func knownBytes(b []byte) string { return intern(b, false) }

func intern(b []byte, enter bool) string {
	n := len(b)
	if n == 0 {
		return ""
	}
	if n > maxInternLen {
		return string(b)
	}
	// FNV-1a over first/last bytes and length spreads the shards cheaply.
	h := uint32(2166136261)
	h = (h ^ uint32(b[0])) * 16777619
	h = (h ^ uint32(b[n-1])) * 16777619
	h = (h ^ uint32(n)) * 16777619
	sh := &internTab[h&(internShards-1)]

	sh.mu.RLock()
	s, ok := sh.m[string(b)] // compiler avoids allocating the lookup key
	full := len(sh.m) >= maxInternPerSlot
	sh.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	if full || !enter {
		return s
	}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]string, 64)
	}
	if prev, ok := sh.m[s]; ok {
		s = prev
	} else if len(sh.m) < maxInternPerSlot {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}
