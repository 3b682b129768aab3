package core

import (
	"fmt"

	"repro/internal/wire"
)

// wirecodec.go: compiled wire codecs (wire.RegisterCompiled) for the BRMI
// protocol messages. Every flush encodes and decodes one invocationData +
// batchArg per recorded call and one callResult per reply, so these five
// types ARE the marshalling hot path; the hand codecs below replace the
// per-field reflection plan while emitting byte-identical wire forms.
// Trailing zero fields are omitted exactly like the generic encoder; a
// decoder fills absent fields with their zero values and skips surplus
// fields from a newer sender.

func encBatchArg(x wire.Enc, a *batchArg) error {
	n := 4
	if !a.Pushed {
		n = 3
	}
	if n == 3 && a.Seq == 0 {
		n = 2
		if !a.IsRef {
			n = 1
			if a.Val == nil {
				n = 0
			}
		}
	}
	x.BeginStruct("brmi.arg", n)
	if n > 0 {
		if err := x.Value(a.Val); err != nil {
			return err
		}
	}
	if n > 1 {
		x.Bool(a.IsRef)
	}
	if n > 2 {
		x.Int(a.Seq)
	}
	if n > 3 {
		x.Bool(a.Pushed)
	}
	return nil
}

func decBatchArg(x wire.Dec, a *batchArg, n int) error {
	var err error
	if n > 0 {
		if a.Val, err = x.Value(); err != nil {
			return err
		}
	}
	if n > 1 {
		if a.IsRef, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 2 {
		if a.Seq, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 3 {
		if a.Pushed, err = x.Bool(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 4)
}

func encArgSlice(x wire.Enc, args []batchArg) error {
	if args == nil {
		x.Nil()
		return nil
	}
	x.Slice(len(args))
	for i := range args {
		if err := encBatchArg(x, &args[i]); err != nil {
			return err
		}
	}
	return nil
}

func decArgSlice(x wire.Dec) ([]batchArg, error) {
	n, err := x.SliceLen()
	if err != nil || n < 0 {
		return nil, err
	}
	out := make([]batchArg, 0, min(n, wire.MaxPrealloc))
	for i := 0; i < n; i++ {
		out = append(out, batchArg{})
		fn, err := x.StructFields("brmi.arg")
		if err != nil {
			return nil, err
		}
		if fn < 0 {
			continue
		}
		if err := decBatchArg(x, &out[i], fn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func encInvocation(x wire.Enc, inv *invocationData) error {
	n := 9
	if len(inv.Push) == 0 {
		n = 8
		if inv.Tag == 0 {
			n = 7
		}
	}
	if n == 7 && !inv.Export {
		n = 6
		if inv.CursorOwner == 0 {
			n = 5
			if inv.Args == nil {
				n = 4 // Kind is always 1..3, the scan stops here
			}
		}
	}
	x.BeginStruct("brmi.inv", n)
	x.Int(inv.Seq)
	x.Int(inv.Target)
	x.Str(inv.Method)
	x.Int(inv.Kind)
	if n > 4 {
		if err := encArgSlice(x, inv.Args); err != nil {
			return err
		}
	}
	if n > 5 {
		x.Int(inv.CursorOwner)
	}
	if n > 6 {
		x.Bool(inv.Export)
	}
	if n > 7 {
		x.Int(inv.Tag)
	}
	if n > 8 {
		x.Slice(len(inv.Push))
		for _, at := range inv.Push {
			x.Int(at)
		}
	}
	return nil
}

func decInvocation(x wire.Dec, inv *invocationData, n int) error {
	var err error
	if n > 0 {
		if inv.Seq, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if inv.Target, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 2 {
		if inv.Method, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 3 {
		if inv.Kind, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 4 {
		if inv.Args, err = decArgSlice(x); err != nil {
			return err
		}
	}
	if n > 5 {
		if inv.CursorOwner, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 6 {
		if inv.Export, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 7 {
		if inv.Tag, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 8 {
		pn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if pn > 0 {
			inv.Push = make([]int64, 0, min(pn, wire.MaxPrealloc))
			for i := 0; i < pn; i++ {
				at, err := x.Int()
				if err != nil {
					return err
				}
				inv.Push = append(inv.Push, at)
			}
		}
	}
	return x.SkipFields(n - 9)
}

func encBatchRequest(x wire.Enc, r *batchRequest) error {
	n := 11
	if len(r.Peers) == 0 {
		n = 10
		if r.Flush == 0 {
			n = 9
		}
	}
	if n == 9 && r.Ship == nil {
		n = 8
		if len(r.Names) == 0 {
			n = 7
			if r.Policy == nil {
				n = 6
				if r.Roots == nil {
					n = 4 // slot 5 is reserved and never the last field written
					if !r.KeepSession {
						n = 3
						if r.Session == 0 {
							n = 2
							if r.Calls == nil {
								n = 1
								if r.Root == 0 {
									n = 0
								}
							}
						}
					}
				}
			}
		}
	}
	x.BeginStruct("brmi.req", n)
	if n > 0 {
		x.Uint(r.Root)
	}
	if n > 1 {
		if r.Calls == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Calls))
			for i := range r.Calls {
				if err := encInvocation(x, &r.Calls[i]); err != nil {
					return err
				}
			}
		}
	}
	if n > 2 {
		x.Uint(r.Session)
	}
	if n > 3 {
		x.Bool(r.KeepSession)
	}
	if n > 4 {
		// Reserved: the slot carried the parallel-roots flag until the
		// executor kept one replay order. Always false, so a multi-root
		// request keeps its bytes.
		x.Bool(false)
	}
	if n > 5 {
		if r.Roots == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Roots))
			for _, id := range r.Roots {
				x.Uint(id)
			}
		}
	}
	if n > 6 {
		if err := x.Value(r.Policy); err != nil {
			return err
		}
	}
	if n > 7 {
		x.Slice(len(r.Names))
		for _, name := range r.Names {
			x.Str(name)
		}
	}
	if n > 8 {
		if err := x.Value(r.Ship); err != nil {
			return err
		}
	}
	if n > 9 {
		x.Uint(r.Flush)
	}
	if n > 10 {
		x.Slice(len(r.Peers))
		for _, ep := range r.Peers {
			x.Str(ep)
		}
	}
	return nil
}

func decBatchRequest(x wire.Dec, r *batchRequest, n int) error {
	var err error
	if n > 0 {
		if r.Root, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 1 {
		cn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if cn >= 0 {
			r.Calls = make([]invocationData, 0, min(cn, wire.MaxPrealloc))
			for i := 0; i < cn; i++ {
				r.Calls = append(r.Calls, invocationData{})
				fn, err := x.StructFields("brmi.inv")
				if err != nil {
					return err
				}
				if fn < 0 {
					continue
				}
				if err := decInvocation(x, &r.Calls[i], fn); err != nil {
					return err
				}
			}
		}
	}
	if n > 2 {
		if r.Session, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 3 {
		if r.KeepSession, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 4 {
		// Reserved slot (see encBatchRequest): read and discarded, so a
		// request from a peer that still sets it replays in recording order.
		if _, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 5 {
		rn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if rn >= 0 {
			r.Roots = make([]uint64, 0, min(rn, wire.MaxPrealloc))
			for i := 0; i < rn; i++ {
				id, err := x.Uint()
				if err != nil {
					return err
				}
				r.Roots = append(r.Roots, id)
			}
		}
	}
	if n > 6 {
		v, err := x.Value()
		if err != nil {
			return err
		}
		if v != nil {
			p, ok := v.(*Policy)
			if !ok {
				return &wire.CorruptError{Detail: "batch request policy has wrong type"}
			}
			r.Policy = p
		}
	}
	if n > 7 {
		nn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if nn > 0 {
			r.Names = make([]string, 0, min(nn, wire.MaxPrealloc))
			for i := 0; i < nn; i++ {
				name, err := x.Str()
				if err != nil {
					return err
				}
				r.Names = append(r.Names, name)
			}
		}
		if err := checkRootNames(r); err != nil {
			return err
		}
	}
	if n > 8 {
		v, err := x.Value()
		if err != nil {
			return err
		}
		if v != nil {
			d, ok := v.(*ShipDirective)
			if !ok {
				return &wire.CorruptError{Detail: "batch request ship directive has wrong type"}
			}
			r.Ship = d
		}
	}
	if n > 9 {
		if r.Flush, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 10 {
		pn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if pn > 0 {
			r.Peers = make([]string, 0, min(pn, wire.MaxPrealloc))
			for i := 0; i < pn; i++ {
				ep, err := x.Str()
				if err != nil {
					return err
				}
				r.Peers = append(r.Peers, ep)
			}
		}
	}
	if err := checkPushes(r); err != nil {
		return err
	}
	return x.SkipFields(n - 11)
}

// checkPushes rejects a request whose push lists cannot be followed: a push
// belongs to a value call outside any cursor run, in a request that names its
// flush, and points into the request's Peers; and no call of the request waits
// for a value the request pushes itself — a value consumed where it is
// produced travels inside the request.
func checkPushes(r *batchRequest) error {
	var tags map[int64]bool
	for i := range r.Calls {
		c := &r.Calls[i]
		if len(c.Push) == 0 {
			continue
		}
		switch {
		case c.Kind != kindValue || c.CursorOwner != 0:
			return &wire.CorruptError{Detail: "batch request pushes the result of a call that returns no single value"}
		case r.Flush == 0:
			return &wire.CorruptError{Detail: "batch request pushes values outside a flush"}
		}
		for _, at := range c.Push {
			if at < 0 || at >= int64(len(r.Peers)) {
				return &wire.CorruptError{Detail: fmt.Sprintf("batch request push index %d is outside its %d peers", at, len(r.Peers))}
			}
		}
		if tags == nil {
			tags = make(map[int64]bool)
		}
		tags[c.Tag] = true
	}
	if tags == nil {
		return nil
	}
	for i := range r.Calls {
		for _, a := range r.Calls[i].Args {
			if a.Pushed && tags[a.Seq] {
				return &wire.CorruptError{Detail: fmt.Sprintf("batch request waits for value %d, which it pushes itself", a.Seq)}
			}
		}
	}
	return nil
}

// checkRootNames rejects a request whose Names do not line up with its
// roots: they must be parallel to Root+Roots, and a position is addressed by
// id or by name, never both.
func checkRootNames(r *batchRequest) error {
	if len(r.Names) == 0 {
		return nil
	}
	if len(r.Names) != 1+len(r.Roots) {
		return &wire.CorruptError{Detail: "batch request root names are not parallel to its roots"}
	}
	for i, name := range r.Names {
		id := r.Root
		if i > 0 {
			id = r.Roots[i-1]
		}
		if id != 0 && name != "" {
			return &wire.CorruptError{Detail: "batch request root carries both an id and a name"}
		}
	}
	return nil
}

func encCallResult(x wire.Enc, r *callResult) error {
	n := 10
	if r.Attempts == 0 {
		n = 9
		if r.Ref.IsZero() {
			n = 8
			if r.BlockErrs == nil {
				n = 7
				if r.Block == nil {
					n = 6
					if r.Count == 0 {
						n = 5
						if r.Base == 0 {
							n = 4
							if !r.Skipped {
								n = 3
								if r.Err == nil {
									n = 2
									if r.Value == nil {
										n = 1
										if r.Seq == 0 {
											n = 0
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	x.BeginStruct("brmi.result", n)
	if n > 0 {
		x.Int(r.Seq)
	}
	if n > 1 {
		if err := x.Value(r.Value); err != nil {
			return err
		}
	}
	if n > 2 {
		if err := x.Value(r.Err); err != nil {
			return err
		}
	}
	if n > 3 {
		x.Bool(r.Skipped)
	}
	if n > 4 {
		x.Int(r.Base)
	}
	if n > 5 {
		x.Int(r.Count)
	}
	if n > 6 {
		if err := x.Value(r.Block); err != nil {
			return err
		}
	}
	if n > 7 {
		if err := x.Value(r.BlockErrs); err != nil {
			return err
		}
	}
	if n > 8 {
		x.RefVal(r.Ref)
	}
	if n > 9 {
		x.Int(r.Attempts)
	}
	return nil
}

func decCallResult(x wire.Dec, r *callResult, n int) error {
	var err error
	if n > 0 {
		if r.Seq, err = x.Int(); err != nil {
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
	if n > 3 {
		if r.Skipped, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 4 {
		if r.Base, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 5 {
		if r.Count, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 6 {
		if r.Block, err = decAnySlice(x); err != nil {
			return err
		}
	}
	if n > 7 {
		if r.BlockErrs, err = decAnySlice(x); err != nil {
			return err
		}
	}
	if n > 8 {
		if r.Ref, err = x.RefVal(); err != nil {
			return err
		}
	}
	if n > 9 {
		if r.Attempts, err = x.Int(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 10)
}

// decAnySlice decodes a []any field (the generic wire form of Block and
// BlockErrs).
func decAnySlice(x wire.Dec) ([]any, error) {
	n, err := x.SliceLen()
	if err != nil || n < 0 {
		return nil, err
	}
	out := make([]any, 0, min(n, wire.MaxPrealloc))
	for i := 0; i < n; i++ {
		v, err := x.Value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func encBatchResponse(x wire.Enc, r *batchResponse) error {
	n := 6
	if r.ShipErr == nil {
		n = 5
		if r.ShipNs == 0 {
			n = 4
			if len(r.Roots) == 0 {
				n = 3
				if r.Restarts == 0 {
					n = 2
					if r.Session == 0 {
						n = 1
						if r.Results == nil {
							n = 0
						}
					}
				}
			}
		}
	}
	x.BeginStruct("brmi.resp", n)
	if n > 0 {
		if r.Results == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Results))
			for i := range r.Results {
				if err := encCallResult(x, &r.Results[i]); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		x.Uint(r.Session)
	}
	if n > 2 {
		x.Int(r.Restarts)
	}
	if n > 3 {
		x.Slice(len(r.Roots))
		for _, ref := range r.Roots {
			x.RefVal(ref)
		}
	}
	if n > 4 {
		x.Int(r.ShipNs)
	}
	if n > 5 {
		if err := x.Value(r.ShipErr); err != nil {
			return err
		}
	}
	return nil
}

func decBatchResponse(x wire.Dec, r *batchResponse, n int) error {
	var err error
	if n > 0 {
		rn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if rn >= 0 {
			r.Results = make([]callResult, 0, min(rn, wire.MaxPrealloc))
			for i := 0; i < rn; i++ {
				r.Results = append(r.Results, callResult{})
				fn, err := x.StructFields("brmi.result")
				if err != nil {
					return err
				}
				if fn < 0 {
					continue
				}
				if err := decCallResult(x, &r.Results[i], fn); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		if r.Session, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 2 {
		if r.Restarts, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 3 {
		rn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if rn > 0 {
			r.Roots = make([]wire.Ref, 0, min(rn, wire.MaxPrealloc))
			for i := 0; i < rn; i++ {
				ref, err := x.RefVal()
				if err != nil {
					return err
				}
				r.Roots = append(r.Roots, ref)
			}
		}
	}
	if n > 4 {
		if r.ShipNs, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 5 {
		if r.ShipErr, err = x.ErrVal(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 6)
}
