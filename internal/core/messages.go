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

// invocationData is one recorded call (paper's InvocationData, Fig. 3); on
// the wire a brmi.call. The request is positional, so the call carries no
// number of its own (see Seq), and its wire fields are ordered Method, Args,
// Target, Kind, two retired slots, CursorOwner: the encoder omits trailing
// zero fields, and Target and Kind travel so that the batch root and a value
// call are zero — a value call on the root costs its method and arguments.
// The retired slots held Tag and Push, which now travel in the request's
// push column (see batchRequest.Flush); only a cursor-owned call writes them,
// as 0 and an empty list, and a call that sets either is refused.
type invocationData struct {
	// Method is the remote method name.
	Method string
	// Args carries each argument as either a value or a proxy reference.
	Args []batchArg
	// Target is the sequence number of the proxy the call was made on, or
	// RootTarget for the batch root (RootTarget-1-i for extra root i). It
	// travels as RootTarget-Target: 0 for the root, 1+i for extra root i.
	Target int64
	// Kind is one of kindValue/kindRemote/kindCursor. It travels as
	// Kind-kindValue: 0 for a value call.
	Kind int64
	// Tag names this call's result flush-wide, for the pushes below: the
	// cluster layer tags a producer with its position in the cluster
	// recording, which a stale-route retry keeps. It travels in the
	// request's push column, and only with a push list.
	Tag int64
	// Push lists the destinations — indexes into the request's Peers — that
	// consume this call's result in the same flush: the serving peer sends
	// each of them the value — a remote result as its exported reference —
	// or the call's failure, as soon as the call ran. Value and remote calls
	// outside cursors only; empty otherwise. It travels in the request's
	// push column.
	Push []int64
	// CursorOwner is 1 + the Seq of the cursor this call belongs to, or 0
	// when the call is not cursor-owned (the +1 keeps the no-cursor case at
	// the omittable zero value). Cursor-owned calls execute once per array
	// element. Use owner()/setOwner.
	CursorOwner int64
	// Seq is the client-assigned sequence number identifying this call and
	// any batch object it creates (§4.1). It is not on the wire: call i of a
	// request is numbered where its session left off plus i — just i in a
	// request that continues no session — on both sides (the client's
	// Batch.nextSeq, the server's session.calls).
	Seq int64
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
// needed", §4.1). A by-value argument travels as its bare value; the brmi.arg
// struct carries only a reference, in this field order (Val leads, always nil
// there). A fourth field, the retired pushed flag, is refused when set.
//
// A Pushed argument is the value another destination of the same flush
// produces: Seq is the producer's Tag, and the serving peer waits for the
// producer's push under the request's Flush id (see Executor.Push). It
// travels as brmi.pushed, the Pushed struct: its header and the tag, 5 B
// for a tag below 64.
type batchArg struct {
	Val    any
	IsRef  bool
	Seq    int64
	Pushed bool
}

// batchRequest is one flush: the whole request payload (rmi.Peer.Send). Its
// wire form is positional and leads with what every flush sends — see
// encBatchRequest for the field order.
type batchRequest struct {
	// Calls are the recorded invocations, in recording order.
	Calls []invocationData
	// Root is the export id of the batch's root remote object; used when
	// Session == 0 to create the server context.
	Root uint64
	// Session is 0 for the first flush of a chain, or the id returned by a
	// previous FlushAndContinue. It travels in the session word, 2·Session +
	// KeepSession, which a request of a cluster flush replaces with its
	// flush field (see Flush).
	Session uint64
	// KeepSession requests that the server retain the object table for a
	// chained batch (§3.5). It travels in the session word's low bit.
	KeepSession bool
	// Roots are the export ids of additional roots (Batch.AddRoot): other
	// exported objects on the same server addressable within this batch.
	// Calls target extra root i with sequence number RootTarget-1-i. Sent on
	// every flush so chained batches can add roots between flushes.
	Roots []uint64
	// Names is empty (every root id-addressed) or parallel to Root+Roots:
	// Names[0] belongs to Root, Names[1+i] to Roots[i]. A position with a
	// name is name-addressed — it travels as the name instead of its id, 0 —
	// and the serving peer resolves the name in its own registry before
	// anything executes; a miss rejects the whole request.
	Names []string
	// Ship, when present, asks the serving peer to replicate the wave before
	// it replies (see ShipDirective).
	Ship *ShipDirective
	// Flush identifies, when not 0, the cluster flush this request is one
	// destination's part of: a random 56-bit id with bit 55 set (isFlushID) the
	// client mints per flush, under which values cross between its destinations
	// (Push, Pushed arguments). A request of a flush keeps and continues no
	// session, and its third field, the session word's slot, carries the flush
	// field instead (encSessionOrFlush): one byte string of the id in 7 bytes,
	// big-endian; then, unless the request names no peer and pushes nothing, the
	// count of Peers and each one's length and bytes, and the push column — for
	// each call that pushes, in call order, the uvarints of how many calls lie
	// between it and the previous one that pushes (or the request's start), of
	// its Tag zigzagged, and of each index on its Push list doubled, plus one on
	// all but the last. The field costs a request that only consumes 9 B, and a
	// producer pushing to one peer adds 3 B to it.
	Flush uint64
	// Peers are the endpoints the request's calls push values to
	// (invocationData.Push indexes them), in the flush field.
	Peers []string
	// Policy is the exception policy for the whole chain; sent on the
	// first flush when it differs from the default AbortPolicy (the server
	// assumes AbortPolicy when absent).
	Policy *Policy
	// Lends is nil while no root is lent, else parallel to Roots: Lends[i]
	// marks extra root i lent (Batch.LendRoot), an id-addressed root the
	// request borrows for calls of its own. One the serving peer does not hold
	// fails only the calls made on it, typed, and the request runs on; any
	// other missing root rejects the request whole. A lent root travels as its
	// id under the signed-integer tag (encRoot), so no name is lent.
	Lends []bool
}

// ShipDirective rides a flush to a replicating destination: after the
// serving peer — the primary of the wave's roots — executed the wave, and
// before it replies, it forwards the request to each root's followers and
// answers once the write quorum holds it. The client says only which ring it
// routed by — its epoch and replication degree — and the quorum: the primary
// picks the followers off its own ring at that epoch and mints the record's
// identity. The roots replicate under the names the request addresses them
// by, so every root of a replicated wave travels by name. Everything here is
// input from outside the serving peer, which vets it before anything
// executes (Executor.SetShipHook).
type ShipDirective struct {
	// Epoch is the ring epoch the client routed the wave at. A primary whose
	// own ring is at another epoch would pick other followers, and refuses
	// the wave unexecuted.
	Epoch uint64
	// Replication is the client ring's replication degree R: a root's
	// followers are its first R distinct owners on the ring, the primary
	// excluded.
	Replication int
	// Quorum is the write quorum W: how many replicas of each root, counting
	// the primary, must hold the wave before the reply leaves. 0 means all.
	Quorum int
}

// callResult is the outcome of one recorded call. A reply's results are
// positional — result i answers the request's call i — so a plain success
// (see plain) travels as its bare value, and this struct only for errors,
// skips, cursors and retries, where its trailing fields appear.
type callResult struct {
	// Seq is unset: only replies from before results were positional echo it.
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
	// success), or is nil — and off the wire — when every element
	// succeeded. Also used for cursor-owned kindRemote calls.
	BlockErrs []any
	// Attempts counts executions when ActionRepeat re-ran the call (0 when
	// the call executed once).
	Attempts int64
}

// batchResponse is the reply to a flush: the whole reply payload. Results
// leads, then what a chain's reply carries, then the ship outcome (see
// encBatchResponse).
type batchResponse struct {
	// Results has one entry per request call, in request order.
	Results []callResult
	// Session is the id to use for the next chained flush (0 when the
	// session was closed).
	Session uint64
	// ShipUs answers a request that carried a ship directive: how long the
	// serving peer spent, once the wave had executed, until the wave's write
	// quorum held it — the part of the flush's round trip that was
	// replication — in whole microseconds, at least 1 (3 B on the wire for a
	// LAN's lag, where nanoseconds took 5). 0 when the wave was not
	// replicated; never 0 when it was.
	ShipUs int64
	// ShipErr is set when the wave executed — Results are what it returned —
	// but its write quorum does not hold it: the serving peer's typed account
	// of the miss. The flush fails with it.
	ShipErr error
	// Roots answers a request that carried Names and KeepSession — a named
	// chain, whose later flushes go id-addressed — parallel to the names: the
	// export id and interface each name-addressed position resolved to, as a
	// reference without an endpoint — the client rebuilds it from the
	// endpoint it called (zero at the id-addressed positions). Absent
	// otherwise.
	Roots []wire.Ref
	// Restarts counts whole-batch restarts that ActionRestart caused.
	Restarts int64
}

// valuePush is one value crossing from its producer's server to a consumer's:
// what the producer call with Tag returned in the flush Flush — its value in
// wire form, or the failure that kept it from producing one. A push under an
// id that is not 56 bits with bit 55 set is refused (Executor.Push), so the
// id takes 9 B here too.
type valuePush struct {
	Flush uint64
	Tag   int64
	Value any
	Err   error
}

func init() {
	// Codec type registration (deterministic, no I/O). The hot protocol
	// messages install compiled codecs (see wirecodec.go), and the
	// retired brmi.inv one that refuses it; Policy and Rule ride the generic
	// reflection plan (sent at most once per chain), and so does
	// ShipDirective (at most once per flush).
	wire.MustRegisterCompiled("brmi.req", true, encBatchRequest, decBatchRequest)
	wire.MustRegisterCompiled("brmi.resp", true, encBatchResponse, decBatchResponse)
	wire.MustRegisterCompiled("brmi.call", false, encCall, decCall)
	wire.MustRegisterCompiled("brmi.inv", false, encRetiredInv, decRetiredInv)
	wire.MustRegisterCompiled("brmi.arg", false, encBatchArg, decBatchArg)
	wire.MustRegisterCompiled("brmi.pushed", false, encPushed, decPushed)
	wire.MustRegisterCompiled("brmi.result", false, encCallResult, decCallResult)
	wire.MustRegister("brmi.policy", &Policy{})
	wire.MustRegister("brmi.rule", Rule{})
	wire.MustRegister("brmi.ship", &ShipDirective{})
	wire.MustRegister("brmi.push", &valuePush{})
	wire.MustRegisterError("brmi.SessionExpired", &SessionExpiredError{})
	wire.MustRegisterError("brmi.KindMismatch", &KindMismatchError{})
	wire.MustRegisterError("brmi.UnresolvedRef", &UnresolvedRefError{})
	wire.MustRegisterError("brmi.BatchError", &BatchError{})
	wire.MustRegisterError("brmi.PushTimeout", &PushTimeoutError{})
	wire.MustRegisterError("brmi.RendezvousFull", &RendezvousFullError{})
}
