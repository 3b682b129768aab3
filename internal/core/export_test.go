package core

import (
	"time"

	"repro/internal/rmi"
	"repro/internal/wire"
)

// PolicyActionForTest exposes the policy matcher to the external test
// package for property testing.
func PolicyActionForTest(p *Policy, err error, method string, index int) Action {
	return p.actionFor(err, method, index)
}

// InstallWithTTL installs the executor with sessions that expire after ttl
// between chained flushes, for the tests of session expiry.
func InstallWithTTL(p *rmi.Peer, ttl time.Duration) (*Executor, error) { return install(p, ttl) }

// The flush messages, for the external tests of their wire form.
type (
	BatchRequest  = batchRequest
	BatchResponse = batchResponse
	CallResult    = callResult
	Invocation    = invocationData
	BatchArg      = batchArg
)

// ValueSlotsForTest reports how many slots the executor's wave-scoped value
// table gets for a request with these calls (0: no table).
func ValueSlotsForTest(calls []Invocation) int { return len(valueTable(calls)) }

// NumRendezvous reports the entries of e's rendezvous table.
func NumRendezvous(e *Executor) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rv)
}

// PushWait and MaxRendezvous are the rendezvous table's bounds.
const (
	PushWait      = pushWait
	MaxRendezvous = maxRendezvous
)

// ValuePush is the message a producer's executor pushes.
type ValuePush = valuePush

// SettleForTest settles b's recorded calls from reply — the bytes of the
// reply a flush of them gets back — as the flush does. It returns
// what the reply decoded to and what the flush would return.
func SettleForTest(b *Batch, reply []byte) (any, error) {
	b.mu.Lock()
	req := &batchRequest{Calls: b.calls, Names: b.names}
	records := b.records
	b.calls, b.records, b.names = nil, nil, nil
	b.mu.Unlock()
	msg, err := wire.Unmarshal(reply)
	return msg, b.settle(b.root.Endpoint, req, records, false, msg, err)
}
