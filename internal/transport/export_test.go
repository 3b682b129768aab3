package transport

import "bufio"

// SetStreamTuningForTest shrinks the chunking thresholds so tests exercise
// the multi-frame paths without moving real MaxFrameSize payloads. The
// returned func restores the production values; register it with t.Cleanup.
func SetStreamTuningForTest(direct, chunk, window int) (restore func()) {
	od, oc, ow := maxDirectPayload, maxChunkData, streamWindow
	maxDirectPayload, maxChunkData, streamWindow = direct, chunk, window
	return func() { maxDirectPayload, maxChunkData, streamWindow = od, oc, ow }
}

// ReadFrame reads one frame through the package's own reader.
func ReadFrame(br *bufio.Reader) (kind byte, id uint64, payload []byte, err error) {
	kind, id, payload, _, err = readFrame(br)
	return kind, id, payload, err
}

// AppendFrame appends one well-formed frame.
func AppendFrame(dst []byte, kind byte, id uint64, payload []byte) []byte {
	return append(appendHeader(dst, kind, id, len(payload)), payload...)
}

// AppendHeader appends the header of a frame claiming plen payload bytes,
// whatever kind and plen say: tests write hostile headers with it.
func AppendHeader(dst []byte, kind byte, id uint64, plen int) []byte {
	return appendHeader(dst, kind, id, plen)
}
