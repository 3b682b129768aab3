// Package wire implements the self-describing binary value encoding used by
// the RMI substrate and the BRMI batching layer.
//
// It plays the role Java object serialization plays for Java RMI: application
// values are passed by copy, remote objects are passed as compact remote
// references (Ref), and error values survive the network with enough type
// information for the receiver to match on them.
//
// Every Marshal call produces a self-contained message: a struct type is
// defined (its wire name bound to a small id) inside the message that uses
// it. An ordered stream of messages may instead share one type table — an
// Encoder on the sending side, a Decoder on the receiving side — so a type is
// defined once per stream. Struct types must be registered with Register
// before they can be encoded or decoded; registration assigns a stable wire
// name (the equivalent of a Java class name in RMI's serialized form). The
// repository's own protocol types are never defined at all: they are listed
// in the append-only standard table both peers compile in (standard.go), and
// a message names one by its index.
//
// A message says each short string once, as Java serialization writes a
// repeated String once per stream and a handle after: every tagged string
// of 1 to 64 bytes a message writes literally takes the next number in the
// message's string table, and a repeat is written as kStrRef and that number
// — 2 bytes, where the literal took at least 3. A new string says only what
// the message's previous literal did not, as a sorted key block front-codes
// its keys: one that shares at least 2 leading bytes with it is written as
// kStrDelta, the shared length and the differing suffix, and takes its number
// like the literal it stands for. Both sides number by the same rule, stop at
// 128 entries (front coding goes on past them), and start afresh with every
// message (a stream's entries too), so a message with no repeat and no shared
// prefix is written as if there were no table, and no frame depends on
// another. The strings inside a Ref, an error and a type definition stay
// literal.
//
// The decoder trusts no count it has not been paid for: every element, field
// and map entry is a value with its own tag byte, so the counts one message
// claims may together add up to no more than its length, and values nest at
// most maxDepth deep; a reference resolves to a string the message already
// paid for, shared, never copied. What a hostile message can make a peer
// allocate is proportional to its size.
//
// Supported values: nil, bool, all int/uint widths, float32/64, string,
// []byte, time.Time, time.Duration, slices, maps, registered structs (value
// or pointer), Ref, and error values (registered error types round-trip as
// their concrete type; unregistered errors degrade to *RemoteError).
package wire

import (
	"errors"
	"fmt"
)

// Kind tags identify the wire form of each encoded value. They are part of
// the wire format and must not be renumbered.
const (
	kNil      byte = 1
	kFalse    byte = 2
	kTrue     byte = 3
	kInt      byte = 4  // zigzag varint
	kUint     byte = 5  // varint
	kFloat64  byte = 6  // 8-byte big endian IEEE 754
	kFloat32  byte = 7  // 4-byte big endian IEEE 754
	kString   byte = 8  // varint length + UTF-8 bytes; 1–64 B ones are numbered (kStrRef)
	kBytes    byte = 9  // varint length + raw bytes
	kSlice    byte = 10 // varint length + that many values
	kMap      byte = 11 // varint length + key/value pairs
	kStruct   byte = 12 // varint type id + varint field count + field values
	kTypeDef  byte = 13 // varint type id + name string; defines id for stream
	kRef      byte = 14 // endpoint string + varint objID + iface string
	kTime     byte = 15 // int64 unix seconds + uint32 nanos
	kErr      byte = 16 // type name string + message string (generic error)
	kDur      byte = 17 // zigzag varint nanoseconds
	kPtr      byte = 18 // reserved: never written, rejected on decode, never reused
	kStd      byte = 19 // varint standard-table index + varint field count + field values
	kStrRef   byte = 20 // varint index into the message's string table: a repeated kString
	kStrDelta byte = 21 // varint shared-prefix length + varint suffix length + suffix: a front-coded kString
)

// Exported sentinel and structured errors.
var (
	// ErrUnregistered reports an attempt to encode or decode a struct type
	// that was never registered.
	ErrUnregistered = errors.New("wire: unregistered type")

	// ErrTruncated reports a message that ended in the middle of a value.
	ErrTruncated = errors.New("wire: truncated message")

	// ErrUnsupported reports an attempt to encode a Go value outside the
	// supported set (channels, funcs, unsafe pointers, ...).
	ErrUnsupported = errors.New("wire: unsupported value")

	// ErrTooDeep reports a value nested deeper than a decoder accepts
	// (maxDepth levels): the encoder refuses it rather than send a message
	// the peer must reject.
	ErrTooDeep = errors.New("wire: value nested too deep")
)

// CorruptError reports malformed bytes at a given offset.
type CorruptError struct {
	Offset int
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wire: corrupt message at offset %d: %s", e.Offset, e.Detail)
}

func init() {
	// A peer that refuses a message that decoded but does not hang together
	// answers its caller with the decoder's own error; registered so that it
	// arrives typed.
	MustRegisterError("wire.Corrupt", &CorruptError{})
}

// Ref is a remote object reference: the wire form of an exported object.
// It is the equivalent of a marshalled RMI stub. Refs are compared by value;
// two Refs naming the same exported object are equal.
type Ref struct {
	// Endpoint is the network address of the owning server.
	Endpoint string
	// ObjID identifies the exported object within its server's export table.
	ObjID uint64
	// Iface names the remote interface the object was exported under.
	Iface string
}

// IsZero reports whether r is the zero reference (no object).
func (r Ref) IsZero() bool { return r.Endpoint == "" && r.ObjID == 0 && r.Iface == "" }

func (r Ref) String() string {
	return fmt.Sprintf("ref(%s/%d:%s)", r.Endpoint, r.ObjID, r.Iface)
}

// RemoteError is the generic wire form of an error whose concrete type was
// not registered. TypeName preserves the sender-side type for matching by
// exception policies.
type RemoteError struct {
	TypeName string
	Message  string
}

func (e *RemoteError) Error() string {
	if e.TypeName == "" {
		return e.Message
	}
	return e.TypeName + ": " + e.Message
}
