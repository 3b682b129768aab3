package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

type testPoint struct {
	X, Y int
}

type testNested struct {
	Name   string
	Point  testPoint
	Tags   []string
	Attrs  map[string]int64
	Blob   []byte
	When   time.Time
	Took   time.Duration
	Ratio  float64
	Flag   bool
	hidden int //nolint:unused // exercises unexported-field skipping
	Skip   int `wire:"-"`
}

type testPtrMsg struct {
	ID   uint64
	Next *testPoint
	Any  any
	Err  error
}

type testError struct {
	Code int
	What string
}

func (e *testError) Error() string { return e.What }

func init() {
	MustRegister("wiretest.Point", testPoint{})
	MustRegister("wiretest.Nested", testNested{})
	MustRegister("wiretest.PtrMsg", &testPtrMsg{})
	MustRegisterError("wiretest.Error", &testError{})
}

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%#v): %v", v, err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%#v): %v", v, err)
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		name string
		in   any
		want any
	}{
		{"nil", nil, nil},
		{"true", true, true},
		{"false", false, false},
		{"zero int", 0, int64(0)},
		{"positive int", 42, int64(42)},
		{"negative int", -1234567, int64(-1234567)},
		{"max int64", int64(math.MaxInt64), int64(math.MaxInt64)},
		{"min int64", int64(math.MinInt64), int64(math.MinInt64)},
		{"int8", int8(-7), int64(-7)},
		{"uint", uint(7), uint64(7)},
		{"max uint64", uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{"float64", 3.25, 3.25},
		{"float32", float32(1.5), float32(1.5)},
		{"neg zero float", math.Copysign(0, -1), math.Copysign(0, -1)},
		{"string", "hello", "hello"},
		{"empty string", "", ""},
		{"utf8 string", "héllo wörld — ICDCS", "héllo wörld — ICDCS"},
		{"duration", 250 * time.Millisecond, 250 * time.Millisecond},
		{"ref", Ref{Endpoint: "mem:1", ObjID: 9, Iface: "File"}, Ref{Endpoint: "mem:1", ObjID: 9, Iface: "File"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.in)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("got %#v (%T), want %#v (%T)", got, got, tt.want, tt.want)
			}
		})
	}
}

func TestRoundTripFloatSpecials(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1)} {
		if got := roundTrip(t, f); got != f {
			t.Errorf("got %v, want %v", got, f)
		}
	}
	got := roundTrip(t, math.NaN())
	if g, ok := got.(float64); !ok || !math.IsNaN(g) {
		t.Errorf("NaN did not round-trip: %#v", got)
	}
}

func TestRoundTripTime(t *testing.T) {
	in := time.Date(2009, 6, 22, 10, 30, 0, 123456789, time.UTC)
	got := roundTrip(t, in)
	gt, ok := got.(time.Time)
	if !ok || !gt.Equal(in) {
		t.Fatalf("got %#v, want %v", got, in)
	}
	// Pre-epoch times must survive too.
	in = time.Date(1908, 1, 1, 0, 0, 0, 5, time.UTC)
	gt = roundTrip(t, in).(time.Time)
	if !gt.Equal(in) {
		t.Fatalf("pre-epoch: got %v, want %v", gt, in)
	}
}

func TestRoundTripBytes(t *testing.T) {
	in := []byte{0, 1, 2, 254, 255}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %#v, want %#v", got, in)
	}
	if g := roundTrip(t, []byte{}); !reflect.DeepEqual(g, []byte{}) {
		t.Fatalf("empty bytes: got %#v", g)
	}
}

func TestRoundTripSliceGeneric(t *testing.T) {
	in := []any{int64(1), "two", 3.0, nil, true}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %#v, want %#v", got, in)
	}
}

func TestRoundTripTypedSliceDecaysToGeneric(t *testing.T) {
	got := roundTrip(t, []string{"a", "b"})
	want := []any{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

func TestRoundTripMapGeneric(t *testing.T) {
	in := map[string]int{"a": 1, "b": 2}
	got := roundTrip(t, in)
	want := map[any]any{"a": int64(1), "b": int64(2)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

func TestRoundTripStruct(t *testing.T) {
	in := testNested{
		Name:  "root",
		Point: testPoint{X: 3, Y: -4},
		Tags:  []string{"a", "b"},
		Attrs: map[string]int64{"k": 9},
		Blob:  []byte{1, 2},
		When:  time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC),
		Took:  time.Second,
		Ratio: 0.5,
		Flag:  true,
		Skip:  99,
	}
	got := roundTrip(t, in)
	g, ok := got.(testNested)
	if !ok {
		t.Fatalf("got %T, want testNested", got)
	}
	in.Skip = 0 // tagged wire:"-": must not travel
	if !reflect.DeepEqual(g, in) {
		t.Fatalf("got %+v, want %+v", g, in)
	}
}

func TestRoundTripPointerRegisteredStruct(t *testing.T) {
	in := &testPtrMsg{ID: 7, Next: &testPoint{X: 1, Y: 2}, Any: "dyn"}
	got := roundTrip(t, in)
	g, ok := got.(*testPtrMsg)
	if !ok {
		t.Fatalf("got %T, want *testPtrMsg", got)
	}
	if !reflect.DeepEqual(g, in) {
		t.Fatalf("got %+v, want %+v", g, in)
	}
}

func TestRoundTripNilPointerField(t *testing.T) {
	in := &testPtrMsg{ID: 1}
	g := roundTrip(t, in).(*testPtrMsg)
	if g.Next != nil || g.Any != nil || g.Err != nil {
		t.Fatalf("nil fields did not stay nil: %+v", g)
	}
}

func TestRoundTripRegisteredError(t *testing.T) {
	in := &testPtrMsg{ID: 2, Err: &testError{Code: 401, What: "denied"}}
	g := roundTrip(t, in).(*testPtrMsg)
	var te *testError
	if !errors.As(g.Err, &te) {
		t.Fatalf("decoded error is %T, want *testError", g.Err)
	}
	if te.Code != 401 || te.What != "denied" {
		t.Fatalf("got %+v", te)
	}
}

func TestRoundTripUnregisteredErrorDegrades(t *testing.T) {
	in := &testPtrMsg{ID: 3, Err: errors.New("plain failure")}
	g := roundTrip(t, in).(*testPtrMsg)
	re, ok := g.Err.(*RemoteError)
	if !ok {
		t.Fatalf("decoded error is %T, want *RemoteError", g.Err)
	}
	if re.Message != "plain failure" {
		t.Fatalf("got %+v", re)
	}
	if re.TypeName == "" {
		t.Fatal("type name lost")
	}
}

func TestTypeNameOf(t *testing.T) {
	if got := TypeNameOf(&testError{}); got != "wiretest.Error" {
		t.Errorf("registered: got %q", got)
	}
	if got := TypeNameOf(errors.New("x")); got == "" {
		t.Error("unregistered: empty name")
	}
	if got := TypeNameOf(&RemoteError{TypeName: "remote.T"}); got != "remote.T" {
		t.Errorf("remote error: got %q", got)
	}
	if got := TypeNameOf(nil); got != "" {
		t.Errorf("nil: got %q", got)
	}
}

func TestMarshalValuesRoundTrip(t *testing.T) {
	in := []any{int64(1), "a", Ref{Endpoint: "e", ObjID: 1, Iface: "I"}, nil}
	data, err := MarshalValues(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalValues(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %#v, want %#v", got, in)
	}
}

func TestMarshalValuesEmpty(t *testing.T) {
	data, err := MarshalValues(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalValues(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %#v", got)
	}
}

func TestMarshalUnregisteredStruct(t *testing.T) {
	type anon struct{ A int }
	if _, err := Marshal(anon{A: 1}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("got %v, want ErrUnregistered", err)
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(make(chan int)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("got %v, want ErrUnsupported", err)
	}
	if _, err := Marshal(func() {}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("func: got %v, want ErrUnsupported", err)
	}
}

func TestRegisterConflicts(t *testing.T) {
	type a struct{ X int }
	type b struct{ X int }
	if err := Register("wiretest.conflict", a{}); err != nil {
		t.Fatal(err)
	}
	if err := Register("wiretest.conflict", a{}); err != nil {
		t.Fatalf("idempotent re-register failed: %v", err)
	}
	if err := Register("wiretest.conflict", b{}); err == nil {
		t.Fatal("conflicting name re-registration succeeded")
	}
	if err := Register("wiretest.conflict2", a{}); err == nil {
		t.Fatal("re-registering same type under second name succeeded")
	}
	if err := Register("", a{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register("wiretest.nonstruct", 42); err == nil {
		t.Fatal("non-struct accepted")
	}
	if err := Register("wiretest.nilsample", nil); err == nil {
		t.Fatal("nil sample accepted")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full, err := Marshal(testNested{Name: strings.Repeat("x", 100)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		if _, err := Unmarshal(full[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	data, _ := Marshal("ok")
	if _, err := Unmarshal(append(data, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalUnknownTag(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	var ce *CorruptError
	// kPtr is reserved: never written, so never accepted.
	for _, tag := range []byte{0xEE, kPtr} {
		if _, err := Unmarshal([]byte{tag, kStruct, 1, 0}); !errors.As(err, &ce) {
			t.Fatalf("tag %d: got %T, want *CorruptError", tag, err)
		}
	}
}

func TestUnmarshalHugeLengthRejected(t *testing.T) {
	// kSlice with an absurd element count must not allocate unbounded memory.
	data := []byte{kSlice, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("huge slice accepted")
	}
	data = []byte{kString, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("huge string accepted")
	}
}

func TestUnmarshalUndefinedStructID(t *testing.T) {
	data := []byte{kStruct, 5, 0}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("undefined struct id accepted")
	}
}

func TestUnmarshalUnregisteredTypeDef(t *testing.T) {
	var e encoder
	e.buf = append(e.buf, kTypeDef, 1)
	e.putString("wiretest.never-registered")
	e.buf = append(e.buf, kStruct, 1, 0)
	if _, err := Unmarshal(e.buf); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("got %v, want ErrUnregistered", err)
	}
}

func TestStructFieldSkewForwardCompat(t *testing.T) {
	// Sender with MORE fields than receiver: simulate by hand-encoding a
	// Point with 3 fields; the third must be discarded.
	var e encoder
	e.buf = append(e.buf, kTypeDef, 1)
	e.putString("wiretest.Point")
	e.buf = append(e.buf, kStruct, 1, 3)
	e.putInt(10)
	e.putInt(20)
	e.putInt(30) // extra field from a newer sender
	got, err := Unmarshal(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.(testPoint); p.X != 10 || p.Y != 20 {
		t.Fatalf("got %+v", p)
	}
	// Sender with FEWER fields: missing fields stay zero.
	e = encoder{}
	e.buf = append(e.buf, kTypeDef, 1)
	e.putString("wiretest.Point")
	e.buf = append(e.buf, kStruct, 1, 1)
	e.putInt(10)
	got, err = Unmarshal(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.(testPoint); p.X != 10 || p.Y != 0 {
		t.Fatalf("got %+v", p)
	}
}

func TestNestedStructReusesTypeDef(t *testing.T) {
	in := []any{testPoint{1, 2}, testPoint{3, 4}, testPoint{5, 6}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The type name must appear exactly once in the message.
	if n := strings.Count(string(data), "wiretest.Point"); n != 1 {
		t.Fatalf("type name encoded %d times, want 1", n)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{testPoint{1, 2}, testPoint{3, 4}, testPoint{5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v", got)
	}
}

func TestRefIsZeroAndString(t *testing.T) {
	var r Ref
	if !r.IsZero() {
		t.Error("zero Ref not IsZero")
	}
	r = Ref{Endpoint: "e", ObjID: 1, Iface: "I"}
	if r.IsZero() {
		t.Error("non-zero Ref IsZero")
	}
	if s := r.String(); !strings.Contains(s, "e/1:I") {
		t.Errorf("String() = %q", s)
	}
}

func TestRemoteErrorError(t *testing.T) {
	e := &RemoteError{TypeName: "app.Boom", Message: "kaboom"}
	if got := e.Error(); got != "app.Boom: kaboom" {
		t.Errorf("got %q", got)
	}
	e = &RemoteError{Message: "kaboom"}
	if got := e.Error(); got != "kaboom" {
		t.Errorf("got %q", got)
	}
}

func TestZigzag(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(x)); got != x {
			t.Errorf("zigzag(%d) round-trip = %d", x, got)
		}
	}
}
