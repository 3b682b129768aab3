package wire

// Span is one encoded value's place in a message: b[Off : Off+Len].
type Span struct{ Off, Len int }

// Fields splits the struct value at msg[at:] into its header — the struct
// tag, type and field count, with any type definitions ahead of them — and
// the span of each encoded field, in order, at its offset in msg. Elems does
// the same for a slice. They attribute a message's bytes to its parts, for
// tests and tools that account for what a frame carries; a part is split
// again by passing the same msg and its offset. Each part is decoded only to
// find where it ends, so the value at `at` must define every non-standard
// type it uses; a string it repeats may have been written anywhere before it
// in msg, which is why msg is the whole message.
func Fields(msg []byte, at int) (header int, fields []Span, err error) {
	d, err := spanDecoder(msg, at)
	if err != nil {
		return 0, nil, err
	}
	defer d.release()
	tag, err := d.tag()
	if err != nil {
		return 0, nil, err
	}
	if tag != kStruct && tag != kStd {
		return 0, nil, d.corrupt("expected struct")
	}
	_, n, err := d.structHeader(tag)
	if err != nil {
		return 0, nil, err
	}
	header = d.pos - at
	fields, err = d.spans(n)
	return header, fields, err
}

// Elems splits the slice value at msg[at:] like Fields.
func Elems(msg []byte, at int) (header int, elems []Span, err error) {
	d, err := spanDecoder(msg, at)
	if err != nil {
		return 0, nil, err
	}
	defer d.release()
	tag, err := d.tag()
	if err != nil {
		return 0, nil, err
	}
	if tag != kSlice {
		return 0, nil, d.corrupt("expected slice")
	}
	n, err := d.count("slice length")
	if err != nil {
		return 0, nil, err
	}
	header = d.pos - at
	elems, err = d.spans(n)
	return header, elems, err
}

// UnmarshalAt decodes the value at s, a span Fields or Elems found in msg,
// like Unmarshal: within msg, whose earlier strings it may repeat.
func UnmarshalAt(msg []byte, s Span) (any, error) {
	d, err := spanDecoder(msg, s.Off)
	if err != nil {
		return nil, err
	}
	defer d.release()
	v, err := d.value()
	if err == nil && d.pos != s.Off+s.Len {
		err = d.corrupt("the value does not end where its span does")
	}
	return v, err
}

// spanDecoder is a decoder positioned at msg[at:] that holds msg's string
// table: it decodes the whole message once, numbering every literal in it.
// A valid value refers only to literals written before it, which hold the
// same places in the whole table; the literals it writes itself are numbered
// again past the end, where nothing refers to them. Its first kStrDelta
// front-codes against the last literal before at, which the decode notes on
// its way past.
func spanDecoder(msg []byte, at int) (*decoder, error) {
	if at < 0 || at > len(msg) {
		return nil, &CorruptError{Offset: at, Detail: "offset outside the message"}
	}
	d := getDecoder(msg)
	if at == 0 {
		return d, nil
	}
	d.upTo = at
	if _, err := d.value(); err != nil {
		d.release()
		return nil, err
	}
	d.pos, d.depth, d.budget = at, 0, len(msg)-at
	d.prev, d.upTo = d.prevAt, 0
	d.types = d.types[:0]
	return d, nil
}

// spans decodes n values and returns where each lay.
func (d *decoder) spans(n int) ([]Span, error) {
	out := make([]Span, 0, min(n, MaxPrealloc))
	for i := 0; i < n; i++ {
		start := d.pos
		if _, err := d.value(); err != nil {
			return nil, err
		}
		out = append(out, Span{Off: start, Len: d.pos - start})
	}
	return out, nil
}
