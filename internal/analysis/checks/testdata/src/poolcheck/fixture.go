// Fixture for the poolcheck analyzer: transport.GetBuffer/PutBuffer
// pairing.
package poolcheck

import (
	"repro/internal/transport"
	"repro/internal/wire"
)

func send(b []byte) {}

// The classic leak: MarshalAppend returns (nil, err) on failure, so the
// pooled buffer fed into it is unreachable on the error path.
func leakOnError(v any) ([]byte, error) {
	payload, err := wire.MarshalAppend(transport.GetBuffer(), v) // want `without transport.PutBuffer`
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// The fix for the above: keep the checkout in a variable and put it back
// on the error path.
func balancedOnError(v any) error {
	buf := transport.GetBuffer()
	payload, err := wire.MarshalAppend(buf, v)
	if err != nil {
		transport.PutBuffer(buf)
		return err
	}
	send(payload)
	return nil
}

func neverPut() {
	buf := transport.GetBuffer() // want `without transport.PutBuffer`
	buf = append(buf, 0)
	_ = buf
}

func doublePut() {
	buf := transport.GetBuffer()
	transport.PutBuffer(buf)
	transport.PutBuffer(buf) // want `transport.PutBuffer is called twice`
}

func useAfterPut(v any) {
	buf := transport.GetBuffer()
	transport.PutBuffer(buf)
	_, _ = wire.MarshalAppend(buf, v) // want `used after transport.PutBuffer`
}

func putOnAllPaths(ok bool) {
	buf := transport.GetBuffer()
	if ok {
		transport.PutBuffer(buf)
	} else {
		transport.PutBuffer(buf)
	}
}

func deferredPut(v any) error {
	buf := transport.GetBuffer()
	defer transport.PutBuffer(buf)
	_, err := wire.MarshalAppend(buf, v)
	return err
}

// Handing the buffer to a callee transfers ownership.
func escapesToCallee() {
	buf := transport.GetBuffer()
	send(buf)
}

// Returning the buffer transfers ownership to the caller.
func escapesToCaller() []byte {
	buf := transport.GetBuffer()
	return buf
}

// Returning through append hands the buffer's backing memory to the
// caller the same way returning the variable does.
func escapesViaAppend(p []byte) []byte {
	out := transport.GetBuffer()
	return append(out, p...)
}

// A call handing back a DIFFERENT []byte neither discharges the argument
// nor carries its obligation into the result: the put of the request
// buffer after the exchange is correct, not a use-after-put, and the
// response needs no put of its own.
func obligationSurvivesRoundTrip() {
	buf := transport.GetBuffer()
	resp := exchange(buf)
	transport.PutBuffer(buf)
	send(resp)
}

func exchange(req []byte) []byte { return req }

// A checkout put back inside its own branch is balanced; the sibling
// branch that never saw it does not vote.
func putInBranch(cond bool, v any) {
	if cond {
		buf := transport.GetBuffer()
		_, _ = wire.MarshalAppend(buf, v)
		transport.PutBuffer(buf)
	}
}

func suppressedLeak() {
	//brmivet:ignore poolcheck deliberate leak exercises pool refill
	buf := transport.GetBuffer()
	_ = buf
}
