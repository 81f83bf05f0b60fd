package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Wire encodings for the element and header types the runtime exchanges.
// All integers are little-endian.  These are deliberately simple: the
// point is that both transports move real bytes, so Stats byte counts
// reflect true message sizes (8 bytes per REAL*8 element, as on the
// machines the paper targeted).

// AppendUint64s appends 64-bit values to buf.
func AppendUint64s(buf []byte, vals []uint64) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(vals))...)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[off+8*i:], v)
	}
	return buf
}

// EncodeFloat64s encodes a []float64 payload.
func EncodeFloat64s(vals []float64) []byte {
	return AppendFloat64s(nil, vals)
}

// AppendFloat64s appends the wire encoding of vals to buf and returns the
// extended slice.  With a caller-retained buf of sufficient capacity the
// encode allocates nothing — the hot-path form the data-movement layer
// uses for reusable per-peer send buffers.
func AppendFloat64s(buf []byte, vals []float64) []byte {
	var off int
	buf, off = GrowFloat64s(buf, len(vals))
	PutFloat64s(buf, off, vals)
	return buf
}

// hostLittleEndian reports whether the host stores a float64 in the wire
// byte order, so that a []float64 already is its own wire encoding.  A
// variable, not a constant, so tests can run the element loop too.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views vals as its raw in-memory bytes (no copy).
func float64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// PutFloat64s stores the wire encoding of vals at byte offset off of buf
// — one block copy on little-endian hosts, where memory already holds
// the wire bytes, and an element loop elsewhere.
func PutFloat64s(buf []byte, off int, vals []float64) {
	if hostLittleEndian {
		copy(buf[off:off+8*len(vals)], float64Bytes(vals))
		return
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
	}
}

// GetFloat64s fills dst from the wire values at byte offset off of buf —
// the decoding counterpart of PutFloat64s.
func GetFloat64s(dst []float64, buf []byte, off int) {
	if hostLittleEndian {
		copy(float64Bytes(dst), buf[off:off+8*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8*i:]))
	}
}

// GrowFloat64s extends buf with room for n float64 wire slots (contents
// unspecified — callers must write every slot) and
// returns the extended slice plus the byte offset where the new region
// starts.  Growth reuses buf's capacity when available, so steady-state
// callers that recycle buffers pay no allocation.
func GrowFloat64s(buf []byte, n int) ([]byte, int) {
	off := len(buf)
	need := off + 8*n
	if need <= cap(buf) {
		buf = buf[:need]
		return buf, off
	}
	nbuf := make([]byte, need)
	copy(nbuf, buf)
	return nbuf, off
}

// PutFloat64 stores v at byte offset off of a wire buffer.
func PutFloat64(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
}

// GetFloat64 reads the float64 at byte offset off of a wire buffer.
func GetFloat64(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// Float64Count returns the number of float64 values in a wire payload,
// panicking on misaligned lengths (a framing bug, not a data error).
func Float64Count(buf []byte) int {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: float64 payload length %d not a multiple of 8", len(buf)))
	}
	return len(buf) / 8
}

// DecodeFloat64s decodes a []float64 payload.
func DecodeFloat64s(buf []byte) []float64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: float64 payload length %d not a multiple of 8", len(buf)))
	}
	out := make([]float64, len(buf)/8)
	GetFloat64s(out, buf, 0)
	return out
}

// DecodeFloat64sInto decodes into dst, which must have exactly the right
// length; it avoids an allocation on hot paths.
func DecodeFloat64sInto(dst []float64, buf []byte) {
	if len(buf) != 8*len(dst) {
		panic(fmt.Sprintf("msg: payload %d bytes, want %d", len(buf), 8*len(dst)))
	}
	GetFloat64s(dst, buf, 0)
}

// EncodeInt64s encodes a []int64 payload.
func EncodeInt64s(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// DecodeInt64s decodes a []int64 payload.
func DecodeInt64s(buf []byte) []int64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: int64 payload length %d not a multiple of 8", len(buf)))
	}
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// EncodeInts encodes a []int payload as int64s.
func EncodeInts(vals []int) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(v)))
	}
	return buf
}

// DecodeInts decodes a payload written by EncodeInts.
func DecodeInts(buf []byte) []int {
	v := DecodeInt64s(buf)
	out := make([]int, len(v))
	for i := range v {
		out[i] = int(v[i])
	}
	return out
}

// PutUint32 / GetUint32 are header helpers for framed transports.
func PutUint32(buf []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(buf[off:], v)
}

// GetUint32 reads a little-endian uint32 at off.
func GetUint32(buf []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(buf[off:])
}
