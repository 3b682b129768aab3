package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// wirecodec.go: compiled wire codecs (wire.RegisterCompiled) for the BRMI
// protocol messages. Every flush encodes and decodes one brmi.call per
// recorded call and one result per reply, so these types ARE the marshalling
// hot path; the hand codecs below replace the per-field reflection plan.
// Both directions are positional: call i of a request is numbered by its
// position (invocationData.Seq), a by-value argument travels as its bare
// value, and result i answers call i, a plain success as its bare value (see
// callResult.plain). Trailing zero fields are omitted exactly like the
// generic encoder; a decoder fills absent fields with their zero values and
// skips surplus fields from a newer sender.

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

// decBatchArg reads a brmi.arg. Its fourth field is the retired pushed flag:
// a pushed argument travels as brmi.pushed, and an argument that sets the
// flag is refused.
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
		pushed, err := x.Bool()
		if err != nil {
			return err
		}
		if pushed {
			return &wire.CorruptError{Detail: "retired pushed-argument form: a pushed argument travels as brmi.pushed"}
		}
	}
	return x.SkipFields(n - 4)
}

// encPushed writes a pushed argument as brmi.pushed: the producer's tag.
func encPushed(x wire.Enc, p *Pushed) error {
	x.BeginStruct("brmi.pushed", 1)
	x.Int(p.Tag)
	return nil
}

func decPushed(x wire.Dec, p *Pushed, n int) error {
	if n < 1 {
		return &wire.CorruptError{Detail: "pushed argument without a tag"}
	}
	var err error
	if p.Tag, err = x.Int(); err != nil {
		return err
	}
	return x.SkipFields(n - 1)
}

// encArgSlice writes a call's arguments: a by-value argument as its bare
// value, a reference as a brmi.arg, a pushed argument as a brmi.pushed.
func encArgSlice(x wire.Enc, args []batchArg) error {
	if args == nil {
		x.Nil()
		return nil
	}
	x.Slice(len(args))
	for i := range args {
		var err error
		switch a := &args[i]; {
		case a.Pushed:
			err = encPushed(x, &Pushed{Tag: a.Seq})
		case a.IsRef:
			err = encBatchArg(x, a)
		default:
			err = x.Value(a.Val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decArgSlice reads a call's arguments: a brmi.arg or a brmi.pushed is
// decoded in place, any other value is a by-value argument.
func decArgSlice(x wire.Dec) ([]batchArg, error) {
	n, err := x.SliceLen()
	if err != nil || n < 0 {
		return nil, err
	}
	out := make([]batchArg, 0, min(n, wire.MaxPrealloc))
	for i := 0; i < n; i++ {
		out = append(out, batchArg{})
		a := &out[i]
		isArg, err := x.NextIs("brmi.arg")
		if err != nil {
			return nil, err
		}
		isPushed := false
		if !isArg {
			if isPushed, err = x.NextIs("brmi.pushed"); err != nil {
				return nil, err
			}
		}
		var fn int
		switch {
		case isArg:
			if fn, err = x.StructFields("brmi.arg"); err == nil {
				err = decBatchArg(x, a, fn)
			}
		case isPushed:
			var p Pushed
			if fn, err = x.StructFields("brmi.pushed"); err == nil {
				err = decPushed(x, &p, fn)
			}
			*a = batchArg{IsRef: true, Seq: p.Tag, Pushed: true}
		default:
			a.Val, err = x.Value()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encCall writes inv as a brmi.call. Seq is implied by the call's position;
// Target and Kind travel relative to the batch root and the value call, so
// both are zero — and omitted when trailing — for a value call on the root.
// Tag and Push travel in the push column of the request's flush field
// (encSessionOrFlush): a cursor-owned call writes their two retired slots as
// 0 and an empty list, since its CursorOwner trails them.
func encCall(x wire.Enc, inv *invocationData) error {
	target, kind := RootTarget-inv.Target, inv.Kind-kindValue
	var n int
	switch {
	case inv.CursorOwner != 0:
		n = 7
	case kind != 0:
		n = 4
	case target != 0:
		n = 3
	case inv.Args != nil:
		n = 2
	default:
		n = 1
	}
	x.BeginStruct("brmi.call", n)
	x.Str(inv.Method)
	if n > 1 {
		if err := encArgSlice(x, inv.Args); err != nil {
			return err
		}
	}
	if n > 2 {
		x.Int(target)
	}
	if n > 3 {
		x.Int(kind)
	}
	if n > 4 {
		x.Int(0)
		x.Slice(0)
		x.Int(inv.CursorOwner)
	}
	return nil
}

// decCall reads a brmi.call into inv; its Seq is the caller's to set. A call
// whose retired slots hold a tag or a push list — the push form from before
// the request's push column — is refused.
func decCall(x wire.Dec, inv *invocationData, n int) error {
	var target, kind int64
	var err error
	if n > 0 {
		if inv.Method, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 1 {
		if inv.Args, err = decArgSlice(x); err != nil {
			return err
		}
	}
	if n > 2 {
		if target, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 3 {
		if kind, err = x.Int(); err != nil {
			return err
		}
	}
	inv.Target, inv.Kind = RootTarget-target, kindValue+kind
	if n > 4 {
		tag, err := x.Int()
		if err != nil {
			return err
		}
		if tag != 0 {
			return &wire.CorruptError{Detail: "retired push form: a call's tag travels in the request's push column"}
		}
	}
	if n > 5 {
		pn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if pn > 0 {
			return &wire.CorruptError{Detail: "retired push form: a call's push list travels in the request's push column"}
		}
	}
	if n > 6 {
		if inv.CursorOwner, err = x.Int(); err != nil {
			return err
		}
	}
	// An eighth field, the retired export flag, is skipped like any surplus.
	return x.SkipFields(n - 7)
}

// retiredInv is brmi.inv, the call form from before requests were
// positional: it spelled out every call's Seq, Target and Kind and wrapped
// every argument. Its standard-table index stays reserved; nothing encodes
// it, and a message that carries one is refused.
type retiredInv struct{}

func encRetiredInv(wire.Enc, *retiredInv) error {
	return fmt.Errorf("brmi: brmi.inv is retired: calls travel as brmi.call")
}

func decRetiredInv(wire.Dec, *retiredInv, int) error {
	return &wire.CorruptError{Detail: "brmi.inv is retired: calls travel as brmi.call"}
}

// encBatchRequest writes a brmi.req. Its fields lead with what a cluster wave
// and a core flush both send — Calls, then the root — and then what only a
// chain (Session) or a cluster wave (its flush field), only a multi-root batch
// (Roots), only a replicated wave (Ship) or only a non-default policy sends,
// trailing zeros omitted. A root position travels as its export id, as the
// name when the request addresses it by one, or as its id under the
// signed-integer tag when the request lends it (encRoot). The third field is
// the session word, 2·Session+KeepSession, or — in a request of a cluster
// flush, which keeps no session — the flush field (encSessionOrFlush). Two
// retired slots, where the flush id and the peers travelled before the flush
// field, sit between Ship and Policy: a request with a policy writes them as 0
// and an empty list.
func encBatchRequest(x wire.Enc, r *batchRequest) error {
	session := r.Session << 1
	if r.KeepSession {
		session |= 1
	}
	if r.Flush == 0 && len(r.Peers) != 0 {
		return fmt.Errorf("brmi: a request outside a flush names %d peers", len(r.Peers))
	}
	var n int
	switch {
	case r.Policy != nil:
		n = 8
	case r.Ship != nil:
		n = 5
	case len(r.Roots) != 0:
		n = 4
	case session != 0 || r.Flush != 0:
		n = 3
	case r.Root != 0 || len(r.Names) != 0:
		n = 2
	case r.Calls != nil:
		n = 1
	}
	x.BeginStruct("brmi.req", n)
	if n > 0 {
		if r.Calls == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Calls))
			for i := range r.Calls {
				if err := encCall(x, &r.Calls[i]); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		encRoot(x, r, 0, r.Root)
	}
	if n > 2 {
		if err := encSessionOrFlush(x, r, session); err != nil {
			return err
		}
	}
	if n > 3 {
		if len(r.Roots) == 0 {
			x.Nil()
		} else {
			x.Slice(len(r.Roots))
			for i, id := range r.Roots {
				encRoot(x, r, 1+i, id)
			}
		}
	}
	if n > 4 {
		if err := x.Value(r.Ship); err != nil {
			return err
		}
	}
	if n > 5 {
		x.Uint(0)
		x.Slice(0)
		if err := x.Value(r.Policy); err != nil {
			return err
		}
	}
	return nil
}

// isFlushID reports whether id is a flush id as clients mint them: 56 bits
// with bit 55 set, the other 55 random, so every id takes the same bytes on
// the wire.
func isFlushID(id uint64) bool { return id>>55 == 1 }

// encSessionOrFlush writes the request's third field: the session word when
// the request is part of no flush, else the flush field — a byte string of the
// flush id, the peers and the push column (see batchRequest.Flush), which only
// a request that keeps and continues no session carries.
func encSessionOrFlush(x wire.Enc, r *batchRequest, session uint64) error {
	if r.Flush == 0 {
		for i := range r.Calls {
			if len(r.Calls[i].Push) != 0 {
				return fmt.Errorf("brmi: call %d of a request outside a flush pushes its result", i)
			}
		}
		x.Uint(session)
		return nil
	}
	switch {
	case !isFlushID(r.Flush):
		return fmt.Errorf("brmi: flush id %#x is not 56 bits with bit 55 set", r.Flush)
	case session != 0:
		return fmt.Errorf("brmi: a request of flush %#x keeps or continues a session", r.Flush)
	}
	var buf [128]byte
	b := buf[:0]
	for shift := 48; shift >= 0; shift -= 8 {
		b = append(b, byte(r.Flush>>shift))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Peers)))
	for _, ep := range r.Peers {
		b = binary.AppendUvarint(b, uint64(len(ep)))
		b = append(b, ep...)
	}
	prev := -1
	for i := range r.Calls {
		c := &r.Calls[i]
		if len(c.Push) == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i-prev-1))
		b = binary.AppendVarint(b, c.Tag)
		for k, at := range c.Push {
			if at < 0 {
				return fmt.Errorf("brmi: call %d pushes to peer %d", i, at)
			}
			u := uint64(at) << 1
			if k < len(c.Push)-1 {
				u |= 1
			}
			b = binary.AppendUvarint(b, u)
		}
		prev = i
	}
	if len(b) == 8 {
		b = b[:7] // no peer and no push: the field ends at the id
	}
	x.BytesVal(b)
	return nil
}

// decSessionOrFlush reads the request's third field, which encSessionOrFlush
// wrote: the session word into r.Session and r.KeepSession, or the flush field
// into r.Flush, r.Peers and the Tag and Push of r's calls. A flush field whose
// id is not 56 bits with bit 55 set, whose peers or push column overrun it, or
// whose push column names a call the request does not carry is refused.
func decSessionOrFlush(x wire.Dec, r *batchRequest) error {
	session, b, isFlush, err := x.UintOrBytes()
	switch {
	case err != nil:
		return err
	case !isFlush:
		r.Session, r.KeepSession = session>>1, session&1 == 1
		return nil
	}
	if len(b) < 7 || b[0]&0x80 == 0 {
		return errMalformedFlush()
	}
	for _, c := range b[:7] {
		r.Flush = r.Flush<<8 | uint64(c)
	}
	col := b[7:]
	if len(col) == 0 {
		return nil
	}
	uvarint := func() (uint64, bool) {
		u, k := binary.Uvarint(col)
		col = col[max(k, 0):]
		return u, k > 0
	}
	pn, ok := uvarint()
	if !ok || pn > uint64(len(col)) {
		return errMalformedFlush()
	}
	if pn > 0 {
		r.Peers = make([]string, 0, min(pn, wire.MaxPrealloc))
	}
	for i := uint64(0); i < pn; i++ {
		n, ok := uvarint()
		if !ok || n > uint64(len(col)) {
			return errMalformedFlush()
		}
		r.Peers = append(r.Peers, wire.Intern(col[:n]))
		col = col[n:]
	}
	next := 0
	for len(col) > 0 {
		skip, ok := uvarint()
		if !ok || skip >= uint64(len(r.Calls)-next) {
			return errMalformedFlush()
		}
		c := &r.Calls[next+int(skip)]
		next += int(skip) + 1
		tag, k := binary.Varint(col)
		if k <= 0 {
			return errMalformedFlush()
		}
		col, c.Tag = col[k:], tag
		for more := true; more; {
			u, ok := uvarint()
			if !ok {
				return errMalformedFlush()
			}
			c.Push = append(c.Push, int64(u>>1))
			more = u&1 == 1
		}
	}
	return nil
}

// errMalformedFlush refuses a flush field that does not parse.
func errMalformedFlush() error {
	return &wire.CorruptError{Detail: "batch request flush field is malformed"}
}

// decRetired reads the two slots between Ship and Policy, where the flush id
// and the peers travelled before the flush field: 0 and an empty list (or
// nil) are all a request writes there now, and anything else — a request in
// the form from before — is refused.
func decRetired(x wire.Dec, n int) error {
	if n > 5 {
		v, err := x.Value()
		if err != nil {
			return err
		}
		if u, ok := v.(uint64); v != nil && (!ok || u != 0) {
			return &wire.CorruptError{Detail: "retired flush form: a flush travels in the request's flush field"}
		}
	}
	if n > 6 {
		pn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if pn > 0 {
			return &wire.CorruptError{Detail: "retired flush form: a request's peers travel in its flush field"}
		}
	}
	return nil
}

// encRoot writes root position i (0 the batch root, 1+j extra root j): its
// name when Names addresses it by one, its export id as a signed integer
// when Lends lends it, else its export id.
func encRoot(x wire.Enc, r *batchRequest, i int, id uint64) {
	switch {
	case i < len(r.Names) && r.Names[i] != "":
		x.Str(r.Names[i])
	case i > 0 && i <= len(r.Lends) && r.Lends[i-1]:
		x.Int(int64(id))
	default:
		x.Uint(id)
	}
}

// decRoot reads what encRoot wrote at position i: the id it returns, or the
// name it records in r.Names, which it grows to reach i; a lent extra root
// it marks in r.Lends, which it grows likewise. The batch root is never lent.
func decRoot(x wire.Dec, r *batchRequest, i int) (uint64, error) {
	id, name, signed, err := x.IDOrName()
	switch {
	case err != nil:
		return 0, err
	case name != "":
		for len(r.Names) <= i {
			r.Names = append(r.Names, "")
		}
		r.Names[i] = name
	case signed && i == 0:
		return 0, &wire.CorruptError{Detail: "batch request lends its batch root"}
	case signed:
		for len(r.Lends) < i {
			r.Lends = append(r.Lends, false)
		}
		r.Lends[i-1] = true
	}
	return id, nil
}

func decBatchRequest(x wire.Dec, r *batchRequest, n int) error {
	var err error
	if n > 0 {
		cn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if cn >= 0 {
			r.Calls = make([]invocationData, 0, min(cn, wire.MaxPrealloc))
			for i := 0; i < cn; i++ {
				// Call i is numbered i; a continued session renumbers from
				// where it left off (Executor.resolveSession).
				r.Calls = append(r.Calls, invocationData{Target: RootTarget, Kind: kindValue, Seq: int64(i)})
				fn, err := x.StructFields("brmi.call")
				if err != nil {
					return err
				}
				if fn < 0 {
					continue
				}
				if err := decCall(x, &r.Calls[i], fn); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		if r.Root, err = decRoot(x, r, 0); err != nil {
			return err
		}
	}
	if n > 2 {
		if err := decSessionOrFlush(x, r); err != nil {
			return err
		}
	}
	if n > 3 {
		rn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if rn >= 0 {
			r.Roots = make([]uint64, 0, min(rn, wire.MaxPrealloc))
			for i := 0; i < rn; i++ {
				id, err := decRoot(x, r, 1+i)
				if err != nil {
					return err
				}
				r.Roots = append(r.Roots, id)
			}
		}
	}
	// Names, once a position is named, is parallel to Root+Roots, and Lends,
	// once a root is lent, to Roots.
	for r.Names != nil && len(r.Names) <= len(r.Roots) {
		r.Names = append(r.Names, "")
	}
	for r.Lends != nil && len(r.Lends) < len(r.Roots) {
		r.Lends = append(r.Lends, false)
	}
	if n > 4 {
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
	if err := decRetired(x, n); err != nil {
		return err
	}
	if n > 7 {
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
	if err := checkPushes(r); err != nil {
		return err
	}
	return x.SkipFields(n - 8)
}

// checkPushes rejects a request whose push lists cannot be followed: a push
// belongs to a value or remote call outside any cursor run and points into
// the request's Peers (the push column it came in names the flush); and no
// call of the request waits for a value the request pushes itself — a value
// consumed where it is produced travels inside the request.
func checkPushes(r *batchRequest) error {
	var tags map[int64]bool
	for i := range r.Calls {
		c := &r.Calls[i]
		if len(c.Push) == 0 {
			continue
		}
		if c.Kind == kindCursor || c.CursorOwner != 0 {
			return &wire.CorruptError{Detail: "batch request pushes the result of a call that returns no single value"}
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

// plain reports whether r is a success its position alone identifies, which
// a reply writes as its bare value: no failure, skip, cursor, block or retry,
// no echoed Seq, and a value the decoder cannot take for the struct itself.
func (r *callResult) plain() bool {
	switch r.Value.(type) {
	case callResult, *callResult:
		return false
	}
	return r.Seq == 0 && r.Err == nil && !r.Skipped && r.Base == 0 && r.Count == 0 &&
		r.Block == nil && r.BlockErrs == nil && r.Attempts == 0
}

// encCallResult writes a brmi.result. Its ninth field is a retired slot (the
// reference of a result pinned for export), written nil before Attempts.
func encCallResult(x wire.Enc, r *callResult) error {
	n := 10
	if r.Attempts == 0 {
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
		x.Nil()
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
		if err = x.SkipFields(1); err != nil {
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

// encBatchResponse writes a brmi.resp: Results, then the session a chain's
// reply carries, then the ship outcome a replicated wave's reply carries,
// then the roots a named chain resolved, and the restarts.
func encBatchResponse(x wire.Enc, r *batchResponse) error {
	var n int
	switch {
	case r.Restarts != 0:
		n = 6
	case len(r.Roots) != 0:
		n = 5
	case r.ShipErr != nil:
		n = 4
	case r.ShipUs != 0:
		n = 3
	case r.Session != 0:
		n = 2
	case r.Results != nil:
		n = 1
	}
	x.BeginStruct("brmi.resp", n)
	if n > 0 {
		if r.Results == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Results))
			for i := range r.Results {
				var err error
				if res := &r.Results[i]; res.plain() {
					err = x.Value(res.Value)
				} else {
					err = encCallResult(x, res)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		x.Uint(r.Session)
	}
	if n > 2 {
		x.Int(r.ShipUs)
	}
	if n > 3 {
		if err := x.Value(r.ShipErr); err != nil {
			return err
		}
	}
	if n > 4 {
		if len(r.Roots) == 0 {
			x.Nil()
		} else {
			x.Slice(len(r.Roots))
			for _, ref := range r.Roots {
				x.RefVal(ref)
			}
		}
	}
	if n > 5 {
		x.Int(r.Restarts)
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
				// A result is its bare value, or the brmi.result struct
				// (every result of a reply from before results were
				// positional).
				v, err := x.Value()
				if err != nil {
					return err
				}
				res, ok := v.(callResult)
				if !ok {
					res = callResult{Value: v}
				}
				r.Results = append(r.Results, res)
			}
		}
	}
	if n > 1 {
		if r.Session, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 2 {
		if r.ShipUs, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 3 {
		if r.ShipErr, err = x.ErrVal(); err != nil {
			return err
		}
	}
	if n > 4 {
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
	if n > 5 {
		if r.Restarts, err = x.Int(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 6)
}
