package core_test

// Hostile element counts against the compiled decoders: a count the
// message's length allows but its elements do not fill.

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// Messages cut just before a slice's element count, as the standard type
// table encodes them (the table's indexes are fixed, see wire/standard.go).
const (
	flushRequestCalls  = "1302020a"           // brmi.req: its calls, then root 16
	flushReplyResults  = "1305010a"           // brmi.resp: its results
	callRequestArgs    = "13000305100801660a" // rmi.call.req: object 16, method "f", then its arguments
	getBatchRequestIDs = "1309030a"           // brmi.getbatch.req: its object ids
)

// inflated completes prefix with a count of n and n zero bytes: the count is
// within what the message's length allows, but no element starts with a zero
// byte, so decoding fails at the first one.
func inflated(prefix string, n int) []byte {
	b, err := hex.DecodeString(prefix)
	if err != nil {
		panic(err)
	}
	b = binary.AppendUvarint(b, uint64(n))
	return append(b, make([]byte, n)...)
}

// decodeAlloc decodes data with wire.Unmarshal and reports what the decode
// allocated.
func decodeAlloc(data []byte) (any, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := wire.Unmarshal(data)
	runtime.ReadMemStats(&after)
	return v, after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is what decoding data may allocate, whatever it claims: the
// generic decoder's fuzz bound (wire's FuzzUnmarshal), a constant for pools
// and interning plus a fixed cost per input byte.
func allocBound(data []byte) uint64 { return 1<<20 + 256*uint64(len(data)) }

// TestInflatedCountsAllocateWhatArrives: a message claiming 2^20 elements in a
// megabyte of zeros fails typed at the first element, having reserved room
// for at most wire.MaxPrealloc of them. A decoder that trusts the count
// reserves all 2^20: 84 MB for a flush request's calls, 168 MB for a reply's
// results.
func TestInflatedCountsAllocateWhatArrives(t *testing.T) {
	for name, prefix := range map[string]string{
		"brmi.req":          flushRequestCalls,
		"brmi.resp":         flushReplyResults,
		"rmi.call.req":      callRequestArgs,
		"brmi.getbatch.req": getBatchRequestIDs,
	} {
		_, alloc, err := decodeAlloc(inflated(prefix, 1<<20))
		var corrupt *wire.CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s claiming 2^20 elements: err = %v, want *wire.CorruptError", name, err)
		}
		if alloc >= 8<<20 {
			t.Errorf("%s claiming 2^20 elements allocated %d bytes decoding, want < 8 MiB", name, alloc)
		}
	}
}
