package core

import (
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
	n := 3
	if a.Seq == 0 {
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
	return x.SkipFields(n - 3)
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
	out := make([]batchArg, n)
	for i := range out {
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
	n := 7
	if !inv.Export {
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
	return x.SkipFields(n - 7)
}

func encBatchRequest(x wire.Enc, r *batchRequest) error {
	n := 9
	if r.Ship == nil {
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
			r.Calls = make([]invocationData, cn)
			for i := range r.Calls {
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
			r.Roots = make([]uint64, rn)
			for i := range r.Roots {
				if r.Roots[i], err = x.Uint(); err != nil {
					return err
				}
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
			r.Names = make([]string, nn)
			for i := range r.Names {
				if r.Names[i], err = x.Str(); err != nil {
					return err
				}
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
	return x.SkipFields(n - 9)
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
	out := make([]any, n)
	for i := range out {
		if out[i], err = x.Value(); err != nil {
			return nil, err
		}
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
			r.Results = make([]callResult, rn)
			for i := range r.Results {
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
			r.Roots = make([]wire.Ref, rn)
			for i := range r.Roots {
				if r.Roots[i], err = x.RefVal(); err != nil {
					return err
				}
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
