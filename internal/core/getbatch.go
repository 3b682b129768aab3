package core

import (
	"context"
	"fmt"

	"repro/internal/rmi"
	"repro/internal/wire"
)

// GetBatch: the streaming bulk-read service (the Get-Batch workload from
// the paper's evaluation, §5). One request names N objects; the server
// streams one entry per object, in request order, through the rmi stream
// layer — so a 64-object read is ONE request and the client consumes early
// entries while later ones are still being produced. The response costs its
// header plus its entries: the entry type is defined once per stream, and
// entries produced in a burst share a chunk (see rmi.EntryWriter for when a
// chunk leaves).
//
// A position addresses its object by export id or by NAME: a name-addressed
// position is resolved in the serving peer's own registry before the read,
// so a client that knows only names pays no lookup round trip ahead of the
// stream. Both kinds of position may share one request.
//
// Entries carry a caller-assigned index so the cluster layer can fan a
// global batch out across servers and merge the per-server streams back
// into request order (see cluster.GetBatch).

// GetBatchService is the rmi stream service name the Executor serves.
const GetBatchService = "core.getbatch"

// GetBatchRequest names the objects to read at one endpoint, in request
// order: one position per element of Indexes, the caller-assigned global
// positions in a fanned-out batch. An empty Method reads each object's
// Snapshot(); otherwise Method is invoked with no arguments and its first
// result is the value.
//
// ObjIDs and Names address the positions, each empty or parallel to Indexes:
// position i is name-addressed when it has no id — ObjIDs is empty, or
// ObjIDs[i] is 0, the id no application export ever gets — and Names[i] is
// then resolved in the serving peer's registry. A request says only what it
// uses: every position named leaves ObjIDs empty, every position id-addressed
// leaves Names empty (the trailing wire field, omitted then, so that request
// keeps its three-field wire form), and only a mixed request carries both.
type GetBatchRequest struct {
	ObjIDs  []uint64
	Indexes []int64
	Method  string
	Names   []string
}

// GetBatchEntry is one delivered result. A per-object failure (unknown id,
// snapshot error) arrives as Err on that entry; it does not abort the rest
// of the stream.
type GetBatchEntry struct {
	Index int64
	Value any
	Err   error
}

func encGetBatchRequest(x wire.Enc, r *GetBatchRequest) error {
	fields := 3
	if len(r.Names) > 0 {
		fields = 4
	}
	x.BeginStruct("brmi.getbatch.req", fields)
	x.Slice(len(r.ObjIDs))
	for _, id := range r.ObjIDs {
		x.Uint(id)
	}
	x.Slice(len(r.Indexes))
	for _, ix := range r.Indexes {
		x.Int(ix)
	}
	x.Str(r.Method)
	if fields > 3 {
		x.Slice(len(r.Names))
		for _, name := range r.Names {
			x.Str(name)
		}
	}
	return nil
}

func decGetBatchRequest(x wire.Dec, r *GetBatchRequest, n int) error {
	if n > 0 {
		sn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if sn >= 0 {
			r.ObjIDs = make([]uint64, 0, min(sn, wire.MaxPrealloc))
			for i := 0; i < sn; i++ {
				id, err := x.Uint()
				if err != nil {
					return err
				}
				r.ObjIDs = append(r.ObjIDs, id)
			}
		}
	}
	if n > 1 {
		sn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if sn >= 0 {
			r.Indexes = make([]int64, 0, min(sn, wire.MaxPrealloc))
			for i := 0; i < sn; i++ {
				ix, err := x.Int()
				if err != nil {
					return err
				}
				r.Indexes = append(r.Indexes, ix)
			}
		}
	}
	if n > 2 {
		var err error
		if r.Method, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 3 {
		sn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if sn >= 0 {
			r.Names = make([]string, 0, min(sn, wire.MaxPrealloc))
			for i := 0; i < sn; i++ {
				name, err := x.Str()
				if err != nil {
					return err
				}
				r.Names = append(r.Names, name)
			}
		}
	}
	return x.SkipFields(n - 4)
}

func encGetBatchEntry(x wire.Enc, r *GetBatchEntry) error {
	x.BeginStruct("brmi.getbatch.entry", 3)
	x.Int(r.Index)
	if err := x.Value(r.Value); err != nil {
		return err
	}
	return x.Value(r.Err)
}

func decGetBatchEntry(x wire.Dec, r *GetBatchEntry, n int) error {
	var err error
	if n > 0 {
		if r.Index, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if r.Value, err = x.Value(); err != nil {
			return err
		}
	}
	if n > 2 {
		if r.Err, err = x.ErrVal(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 3)
}

// ElsewhereError is a name-addressed position's failure when the name is
// bound, in the serving peer's registry, to an object exported on another
// endpoint — a non-movable object whose binding migrated without it, or a
// deliberate cross-server bind. The object is not here to read or call; Ref
// is the binding, and the caller addresses it by id at Ref.Endpoint.
type ElsewhereError struct {
	Name string
	Ref  wire.Ref
}

func (e *ElsewhereError) Error() string {
	return fmt.Sprintf("brmi: %q is bound to object %d at %s", e.Name, e.Ref.ObjID, e.Ref.Endpoint)
}

func init() {
	wire.MustRegisterCompiled("brmi.getbatch.req", true, encGetBatchRequest, decGetBatchRequest)
	wire.MustRegisterCompiled("brmi.getbatch.entry", true, encGetBatchEntry, decGetBatchEntry)
	wire.MustRegisterError("brmi.getbatch.elsewhere", &ElsewhereError{})
}

// snapshotter is the structural slice of cluster.Movable this package needs
// (a core→cluster import would cycle): state-bearing objects expose their
// migration snapshot, which doubles as the bulk-read payload.
type snapshotter interface {
	Snapshot() (any, error)
}

// resolver is the structural slice of registry.Service this package needs
// (core does not import registry): the serving peer's own name table,
// reached as the system object at rmi.RegistryObjID.
type resolver interface {
	Lookup(name string) (wire.Ref, error)
}

// serveGetBatch streams one entry per requested object, in request order.
// Registered as the GetBatchService stream handler by Install. Entries are
// read (and counted) under core.getbatch_entries, NOT core.calls_executed:
// replica replay accounting (chaos invariant 6) cross-checks the latter
// against client acks, and bulk reads are not acked calls.
func (e *Executor) serveGetBatch(ctx context.Context, req any, w *rmi.EntryWriter) error {
	r, ok := req.(*GetBatchRequest)
	if !ok {
		return fmt.Errorf("brmi: getbatch: unexpected request type %T", req)
	}
	if err := r.check(); err != nil {
		return err
	}
	e.getbatchBatches.Inc()
	var reg resolver // this peer's registry, when the request carries names
	if len(r.Names) != 0 {
		obj, _ := e.peer.LocalObject(rmi.RegistryObjID)
		reg, _ = obj.(resolver)
	}
	for i, index := range r.Indexes {
		entry := GetBatchEntry{Index: index}
		var objID uint64
		if len(r.ObjIDs) != 0 {
			objID = r.ObjIDs[i]
		}
		if objID == 0 && len(r.Names) != 0 {
			var ref wire.Ref
			ref, entry.Err = e.resolveLocal(reg, r.Names[i])
			objID = ref.ObjID
		}
		if entry.Err == nil {
			entry.Value, entry.Err = e.readObject(ctx, objID, r.Method)
		}
		e.getbatchEntries.Inc()
		if err := w.WriteEntry(&entry); err != nil {
			return err
		}
	}
	return nil
}

// check refuses a request whose addressing slices are not each empty or
// parallel to Indexes, or that leaves its positions with neither.
func (r *GetBatchRequest) check() error {
	n := len(r.Indexes)
	switch {
	case len(r.ObjIDs) != 0 && len(r.ObjIDs) != n:
		return fmt.Errorf("brmi: getbatch: %d ids but %d indexes", len(r.ObjIDs), n)
	case len(r.Names) != 0 && len(r.Names) != n:
		return fmt.Errorf("brmi: getbatch: %d names but %d indexes", len(r.Names), n)
	case len(r.ObjIDs)+len(r.Names) == 0 && n != 0:
		return fmt.Errorf("brmi: getbatch: %d indexes but neither ids nor names", n)
	}
	return nil
}

// resolveLocal resolves a name-addressed position — of a GetBatch or of a
// batch request's roots — in reg, this peer's own registry (nil when it runs
// none). The registry's failures travel as they are (*registry.NotBoundError
// for an unknown name, *rmi.WrongHomeError for one that migrated away); a
// binding that points at another endpoint is an *ElsewhereError.
func (e *Executor) resolveLocal(reg resolver, name string) (wire.Ref, error) {
	if reg == nil {
		return wire.Ref{}, fmt.Errorf("brmi: resolve %q: %s runs no registry", name, e.peer.Endpoint())
	}
	ref, err := reg.Lookup(name)
	if err != nil {
		return wire.Ref{}, err
	}
	if ref.Endpoint != e.peer.Endpoint() {
		return wire.Ref{}, &ElsewhereError{Name: name, Ref: ref}
	}
	return ref, nil
}

// readObject reads one exported object: its Snapshot() when method is
// empty, else method's first result, in wire form. An id that migrated away
// fails with the tombstone's *rmi.WrongHomeError, like a call routed there.
func (e *Executor) readObject(ctx context.Context, objID uint64, method string) (any, error) {
	obj, found := e.peer.LocalObject(objID)
	if !found {
		if wrong, moved := e.peer.ForwardedObject(objID); moved {
			return nil, wrong
		}
		return nil, &rmi.NoSuchObjectError{ObjID: objID}
	}
	var v any
	if method != "" {
		results, err := e.peer.InvokeLocal(ctx, obj, method, nil)
		if err != nil {
			return nil, err
		}
		if len(results) > 0 {
			v = results[0]
		}
	} else {
		s, can := obj.(snapshotter)
		if !can {
			return nil, fmt.Errorf("brmi: getbatch: object %d (%T) has no snapshot", objID, obj)
		}
		var err error
		if v, err = s.Snapshot(); err != nil {
			return nil, err
		}
	}
	if v == nil {
		return nil, nil
	}
	wv, err := e.peer.ToWire(v)
	if err != nil {
		return nil, fmt.Errorf("brmi: getbatch: marshal object %d: %w", objID, err)
	}
	return wv, nil
}

// GetBatchStream is the consumer end of one server's GetBatch stream.
type GetBatchStream struct {
	sc *rmi.StreamCall
}

// GetBatch issues one streaming bulk read of req's positions against
// endpoint. The stream must be drained to io.EOF or closed.
func GetBatch(ctx context.Context, p *rmi.Peer, endpoint string, req *GetBatchRequest) (*GetBatchStream, error) {
	sc, err := p.CallStream(ctx, endpoint, GetBatchService, req)
	if err != nil {
		return nil, err
	}
	return &GetBatchStream{sc: sc}, nil
}

// Next returns the next entry in request order, or io.EOF after the last.
func (s *GetBatchStream) Next() (*GetBatchEntry, error) {
	v, err := s.sc.Next()
	if err != nil {
		return nil, err
	}
	entry, ok := v.(*GetBatchEntry)
	if !ok {
		return nil, fmt.Errorf("brmi: getbatch: unexpected entry type %T", v)
	}
	return entry, nil
}

// Close abandons the stream, canceling the producer. Safe after EOF.
func (s *GetBatchStream) Close() error { return s.sc.Close() }
