package wire

// Span is one encoded value's place in a message: b[Off : Off+Len].
type Span struct{ Off, Len int }

// Fields splits the struct value at the front of b into its header — the
// struct tag, type and field count, with any type definitions ahead of them
// — and the span of each encoded field, in order. Elems does the same for a
// slice. They attribute a message's bytes to its parts, for tests and tools
// that account for what a frame carries; each part is decoded only to find
// where it ends, so b must define every non-standard type it uses.
func Fields(b []byte) (header int, fields []Span, err error) {
	d := getDecoder(b)
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
	header = d.pos
	fields, err = d.spans(n)
	return header, fields, err
}

// Elems splits the slice value at the front of b like Fields.
func Elems(b []byte) (header int, elems []Span, err error) {
	d := getDecoder(b)
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
	header = d.pos
	elems, err = d.spans(n)
	return header, elems, err
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
