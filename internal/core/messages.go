package core

import "repro/internal/wire"

// Return kinds a recorded call can have. The client decides the kind by
// which recording method the programmer used (Call / CallBatch /
// CallCursor); the server validates it against the actual result shape.
const (
	kindValue  int64 = 1 // result (possibly void) is returned to a future
	kindRemote int64 = 2 // result is a remote object kept server-side (§4.2)
	kindCursor int64 = 3 // result is a slice; sub-batch runs per element (§3.4)
)

// invocationData is the wire form of one recorded call (paper's
// InvocationData, Fig. 3). Field order is a wire-size optimization: the
// encoder omits trailing zero fields, so the rarely-set fields
// (CursorOwner, Export) come last and the common call costs only the
// leading fields on the wire.
type invocationData struct {
	// Seq is the client-assigned sequence number identifying this call and
	// any batch object it creates (§4.1).
	Seq int64
	// Target is the sequence number of the proxy the call was made on, or
	// RootTarget for the batch root.
	Target int64
	// Method is the remote method name.
	Method string
	// Kind is one of kindValue/kindRemote/kindCursor.
	Kind int64
	// Args carries each argument as either a value or a proxy reference.
	Args []batchArg
	// CursorOwner is 1 + the Seq of the cursor this call belongs to, or 0
	// when the call is not cursor-owned (the +1 keeps the no-cursor case at
	// the omittable zero value). Cursor-owned calls execute once per array
	// element. Use owner()/setOwner.
	CursorOwner int64
	// Export asks the server to pin this call's remote result as a fresh
	// exported reference and return it in the call's result (kindRemote
	// only, outside cursors). The cluster layer uses it to forward a
	// result produced on one server into a later-stage sub-batch bound
	// for another server.
	Export bool
}

// owner returns the owning cursor's Seq, or NoCursor.
func (inv *invocationData) owner() int64 {
	if inv.CursorOwner == 0 {
		return NoCursor
	}
	return inv.CursorOwner - 1
}

// setOwner records the owning cursor's Seq.
func (inv *invocationData) setOwner(seq int64) { inv.CursorOwner = seq + 1 }

// RootTarget marks a call on the batch root object.
const RootTarget int64 = -1

// NoCursor marks a call that is not part of a cursor sub-batch.
const NoCursor int64 = -1

// batchArg is one argument: a serialized value or a reference to a batch
// object created earlier in the chain ("only the identifier of the stub is
// needed", §4.1). Val leads so the common by-value argument encodes as a
// single field under trailing-zero omission.
type batchArg struct {
	Val   any
	IsRef bool
	Seq   int64
}

// batchRequest is the payload of one flush (the invokeBatch call). Root and
// Calls lead so the common single-shot flush (no session, no extra roots,
// default policy) costs two fields on the wire.
type batchRequest struct {
	// Root is the export id of the batch's root remote object; used when
	// Session == 0 to create the server context.
	Root uint64
	// Calls are the recorded invocations, in recording order.
	Calls []invocationData
	// Session is 0 for the first flush of a chain, or the id returned by a
	// previous FlushAndContinue.
	Session uint64
	// KeepSession requests that the server retain the object table for a
	// chained batch (§3.5).
	KeepSession bool
	// Roots are the export ids of additional roots (Batch.AddRoot): other
	// exported objects on the same server addressable within this batch.
	// Calls target extra root i with sequence number RootTarget-1-i. Sent on
	// every flush so chained batches can add roots between flushes.
	Roots []uint64
	// Policy is the exception policy for the whole chain; sent on the
	// first flush when it differs from the default AbortPolicy (the server
	// assumes AbortPolicy when absent).
	Policy *Policy
	// Names is empty (every root id-addressed) or parallel to Root+Roots:
	// Names[0] belongs to Root, Names[1+i] to Roots[i]. A position whose id
	// is 0 and whose name is not empty is name-addressed: the serving peer
	// resolves the name in its own registry before anything executes, and a
	// miss rejects the whole request. Names is the trailing wire field and
	// is omitted when empty, so an id-addressed flush keeps its wire form.
	Names []string
	// Ship, when present, asks the serving peer to replicate the wave before
	// it replies (see ShipDirective). The trailing wire field, omitted when
	// nil: an unreplicated flush keeps its wire form.
	Ship *ShipDirective
}

// ShipDirective rides a flush to a replicating destination: after the
// serving peer — the primary of the wave's roots — executed the wave, and
// before it replies, it forwards the request to the listed followers and
// answers once the write quorum holds it. The client only says where the
// followers are, as of which ring epoch; the record's identity is minted at
// the primary. Everything here is input from outside the serving peer, which
// vets it before anything executes (Executor.SetShipHook).
type ShipDirective struct {
	// Followers is parallel to the request's roots (Root, then Roots):
	// Followers[i] lists the servers that replicate root i, the primary
	// itself excluded, as indexes into the ring's sorted membership at Epoch
	// (Ring.Endpoints) — a byte or two each where an endpoint string costs
	// its length.
	Followers [][]int
	// Epoch is the ring epoch the follower lists were read at — one read per
	// wave. A primary whose own ring is at another epoch cannot resolve the
	// indexes and refuses the wave unexecuted.
	Epoch uint64
	// Quorum is the write quorum W: how many replicas of each root, counting
	// the primary, must hold the wave before the reply leaves. 0 means all.
	Quorum int
	// Names are the roots' cluster-wide names, parallel to the roots, when
	// the request itself addresses them by id (a chained wave, after the
	// first resolved its names); empty when the request's own Names has them.
	Names []string
}

// callResult is the outcome of one recorded call. The happy-path fields
// (Seq, Value) lead: a successful value call costs two wire fields, a
// successful void call one, everything after only appears for errors,
// cursors, retries, and exports.
type callResult struct {
	Seq int64
	// Value is the call's result for kindValue calls.
	Value any
	// Err is the exception this call threw, or the error of the dependency
	// it could not be executed without, or nil.
	Err error
	// Skipped reports the call never ran (aborted batch or failed
	// dependency); Err then carries the originating exception, so futures
	// rethrow the error they depend on (§3.3).
	Skipped bool
	// Base is the server-assigned id region for per-element objects:
	// for kindCursor calls the elements live at Base..Base+Count-1; for
	// kindRemote calls owned by a cursor, the per-element results live at
	// Base..Base+Count-1 as well.
	Base int64
	// Count is the cursor element count (kindCursor) or the block length.
	Count int64
	// Block holds per-element values for kindValue calls owned by a cursor.
	Block []any
	// BlockErrs holds per-element errors parallel to Block (entries nil on
	// success). Also used for cursor-owned kindRemote calls.
	BlockErrs []any
	// Ref is the pinned exported reference of this call's result, set when
	// the request marked the call for export (invocationData.Export). The
	// export is lease-backed: the server's marshal-grace lease protects it
	// until a client dirty arrives (internal/dgc).
	Ref wire.Ref
	// Attempts counts executions when ActionRepeat re-ran the call (0 when
	// the call executed once).
	Attempts int64
}

// batchResponse is the reply to a flush. Results leads: the common
// non-chained, non-restarted reply is one wire field.
type batchResponse struct {
	// Results has one entry per request call, in request order.
	Results []callResult
	// Session is the id to use for the next chained flush (0 when the
	// session was closed).
	Session uint64
	// Restarts counts whole-batch restarts that ActionRestart caused.
	Restarts int64
	// Roots answers a request that carried Names, parallel to them: the
	// export id and interface each name-addressed position resolved to, as
	// a reference without an endpoint — the client rebuilds it from the
	// endpoint it called (zero at the id-addressed positions). Absent
	// otherwise.
	Roots []wire.Ref
	// ShipNs answers a request that carried a ship directive: how long the
	// serving peer spent, once the wave had executed, until the wave's write
	// quorum held it — the part of the flush's round trip that was
	// replication. 0 when the wave was not replicated; never 0 when it was.
	ShipNs int64
	// ShipErr is set when the wave executed — Results are what it returned —
	// but its write quorum does not hold it: the serving peer's typed account
	// of the miss. The flush fails with it.
	ShipErr error
}

func init() {
	// Codec type registration (deterministic, no I/O). The five hot
	// protocol messages install compiled codecs (see wirecodec.go); Policy
	// and Rule ride the generic reflection plan (sent at most once per
	// chain), and so does ShipDirective (at most once per flush).
	wire.MustRegisterCompiled("brmi.req", true, encBatchRequest, decBatchRequest)
	wire.MustRegisterCompiled("brmi.resp", true, encBatchResponse, decBatchResponse)
	wire.MustRegisterCompiled("brmi.inv", false, encInvocation, decInvocation)
	wire.MustRegisterCompiled("brmi.arg", false, encBatchArg, decBatchArg)
	wire.MustRegisterCompiled("brmi.result", false, encCallResult, decCallResult)
	wire.MustRegister("brmi.policy", &Policy{})
	wire.MustRegister("brmi.rule", Rule{})
	wire.MustRegister("brmi.ship", &ShipDirective{})
	wire.MustRegisterError("brmi.SessionExpired", &SessionExpiredError{})
	wire.MustRegisterError("brmi.KindMismatch", &KindMismatchError{})
	wire.MustRegisterError("brmi.UnresolvedRef", &UnresolvedRefError{})
	wire.MustRegisterError("brmi.BatchError", &BatchError{})
}
