package core

import (
	"time"

	"repro/internal/rmi"
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
