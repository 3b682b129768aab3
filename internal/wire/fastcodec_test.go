package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// fcPayload exercises every Enc/Dec primitive through a compiled codec.
type fcPayload struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Ready   bool
	Elapsed time.Duration
	Home    Ref
	Extra   any
}

func encFCPayload(x Enc, p *fcPayload) error {
	n := 8
	if p.Extra == nil {
		n = 7
		if p.Home.IsZero() {
			n = 6
			if p.Elapsed == 0 {
				n = 5
				if !p.Ready {
					n = 4
					if p.Data == nil {
						n = 3
						if p.Seq == 0 {
							n = 2
							if p.Name == "" {
								n = 1
								if p.ID == 0 {
									n = 0
								}
							}
						}
					}
				}
			}
		}
	}
	x.BeginStruct("wiretest.fc", n)
	if n > 0 {
		x.Int(p.ID)
	}
	if n > 1 {
		x.Str(p.Name)
	}
	if n > 2 {
		x.Uint(p.Seq)
	}
	if n > 3 {
		x.BytesVal(p.Data)
	}
	if n > 4 {
		x.Bool(p.Ready)
	}
	if n > 5 {
		x.Int(int64(p.Elapsed))
	}
	if n > 6 {
		x.RefVal(p.Home)
	}
	if n > 7 {
		if err := x.Value(p.Extra); err != nil {
			return err
		}
	}
	return nil
}

func decFCPayload(x Dec, p *fcPayload, n int) error {
	var err error
	if n > 0 {
		if p.ID, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if p.Name, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 2 {
		if p.Seq, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 3 {
		if p.Data, err = x.BytesVal(); err != nil {
			return err
		}
	}
	if n > 4 {
		if p.Ready, err = x.Bool(); err != nil {
			return err
		}
	}
	if n > 5 {
		if p.Elapsed, err = x.Dur(); err != nil {
			return err
		}
	}
	if n > 6 {
		if p.Home, err = x.RefVal(); err != nil {
			return err
		}
	}
	if n > 7 {
		if p.Extra, err = x.Value(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 8)
}

// fcTwin has the identical field layout but stays on the generic
// reflection plan, to pin wire-format parity between the two paths.
type fcTwin struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Ready   bool
	Elapsed time.Duration
	Home    Ref
	Extra   any
}

func init() {
	MustRegisterCompiled("wiretest.fc", false, encFCPayload, decFCPayload)
	MustRegister("wiretest.fctwin", fcTwin{})
}

func fcSamples() []fcPayload {
	return []fcPayload{
		{},
		{ID: -5},
		{ID: 1, Name: "n", Seq: 9},
		{ID: 1, Name: "full", Seq: 2, Data: []byte{1, 2, 3}, Ready: true,
			Elapsed: -3 * time.Second, Home: Ref{Endpoint: "s", ObjID: 7, Iface: "I"},
			Extra: "tail"},
		{Data: []byte{}, Ready: true}, // empty-but-non-nil slice survives
	}
}

func TestCompiledCodecRoundTrip(t *testing.T) {
	for _, want := range fcSamples() {
		data, err := Marshal(want)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", want, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%+v): %v", want, err)
		}
		gp, ok := got.(fcPayload)
		if !ok {
			t.Fatalf("decoded %T, want fcPayload", got)
		}
		if !reflect.DeepEqual(gp, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", gp, want)
		}
	}
}

// The compiled codec must emit byte-identical messages to the generic plan
// (modulo the registered type name, which has equal length here by
// construction: "wiretest.fc"+"twin" — so compare through the twin).
func TestCompiledCodecWireParity(t *testing.T) {
	for _, s := range fcSamples() {
		twin := fcTwin(s)
		fast, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Marshal(twin)
		if err != nil {
			t.Fatal(err)
		}
		// Both encode as: kTypeDef id name … — skip tag+id+len+name, then
		// the remainder (field count + field encodings) must match exactly.
		trim := func(b []byte, name string) []byte {
			// kTypeDef(1) + id varint(1) + len varint(1) + name
			return b[3+len(name):]
		}
		f, g := trim(fast, "wiretest.fc"), trim(slow, "wiretest.fctwin")
		if !reflect.DeepEqual(f, g) {
			t.Fatalf("wire forms diverge for %+v:\nfast %v\nslow %v", s, f, g)
		}
	}
}

// Compiled values nested inside generic containers and struct fields decode
// through the fast hooks.
func TestCompiledCodecNested(t *testing.T) {
	type holder struct {
		One  fcPayload
		Many []fcPayload
		Any  any
	}
	MustRegister("wiretest.fcholder", holder{})
	want := holder{
		One:  fcPayload{ID: 1, Name: "one"},
		Many: []fcPayload{{ID: 2}, {Name: "three", Ready: true}},
		Any:  fcPayload{ID: 4, Elapsed: time.Minute},
	}
	data, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nested round trip:\n got %+v\nwant %+v", got, want)
	}
}

// NextIs tells a struct of the named type from anything else, consuming only
// the type definitions before it: the struct then decodes in place, and any
// other value — another type's struct, a bare value, a header this binary
// cannot resolve — decodes, or fails, exactly as if NextIs had not looked.
func TestNextIs(t *testing.T) {
	named, err := Marshal(fcPayload{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Marshal(int64(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		is   string
		want bool
	}{
		{"defined by name", named, "wiretest.fc", true},
		{"another type", named, "wiretest.fctwin", false},
		{"bare value", bare, "wiretest.fc", false},
		{"undefined struct id", []byte{kStruct, 9, 0}, "wiretest.fc", false},
		{"past the standard table", []byte{kStd, 0x80, 0x80, 0x80, 0x80, 0x01, 0}, "wiretest.fc", false},
		{"truncated header", []byte{kStd}, "wiretest.fc", false},
		{"empty", nil, "wiretest.fc", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := getDecoder(c.data)
			defer d.release()
			x := Dec{d}
			is, err := x.NextIs(c.is)
			if err != nil || is != c.want {
				t.Fatalf("NextIs(%q) = %v, %v; want %v", c.is, is, err, c.want)
			}
			if at := bytes.IndexByte(c.data, kStruct); is && d.pos != at {
				t.Errorf("NextIs left the decoder at %d, want the struct header at %d", d.pos, at)
			}
			want, wantErr := Unmarshal(c.data)
			if is {
				var p fcPayload
				n, err := x.StructFields(c.is)
				if err == nil {
					err = decFCPayload(x, &p, n)
				}
				if err != nil || !reflect.DeepEqual(p, want) {
					t.Errorf("decoded in place to %+v, %v; Unmarshal says %+v, %v", p, err, want, wantErr)
				}
				return
			}
			got, err := x.Value()
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
				t.Errorf("decoded to %+v, %v; Unmarshal says %+v, %v", got, err, want, wantErr)
			}
		})
	}
}
