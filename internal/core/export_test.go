package core

// PolicyActionForTest exposes the policy matcher to the external test
// package for property testing.
func PolicyActionForTest(p *Policy, err error, method string, index int) Action {
	return p.actionFor(err, method, index)
}

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
