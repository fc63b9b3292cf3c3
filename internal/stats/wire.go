package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SummaryWireVersion is the version of the binary SampleSummary encoding
// below. The encoding ships shard summaries between coordinator and worker
// processes, so two builds interoperate exactly when they agree on this
// version; DecodeSummary rejects foreign versions outright (the shard is
// then recomputed locally — a correctness non-event, like a foreign-schema
// store entry reading as a miss). Any change to the encoded field sets or
// their order MUST bump this constant — TestSummaryWireFieldsPinned pins the
// field list of every encoded struct so an added field cannot slip through
// silently, mirroring core.EncodingVersion's discipline for config
// encodings.
//
// Version 2 appended a trailing 64-bit FNV-1a checksum over the whole frame:
// a corrupted byte anywhere — magic, header or payload — now fails decoding
// instead of silently flipping a float in the shard sample, which would break
// the coordinator/worker bit-identity invariant undetectably. Truncation and
// length forgery were already caught structurally; the checksum closes the
// in-place-corruption hole.
const SummaryWireVersion = 2

// wireMagic brands every encoded summary; a result-store JSON body or a
// truncated frame fails fast instead of decoding into garbage.
var wireMagic = [4]byte{'P', 'T', 'S', 'M'}

// wireKindFull tags a full-summary frame, the only kind on the wire; any
// other kind byte is rejected.
const wireKindFull = 1

// EncodeSummary serializes a *FullSummary for transport: its run-ordered
// sample plus the battery mode and peak. The sorted view and battery state
// are rebuilt on decode, which is exact because a full summary's views and
// reports are a pure, chunking-invariant function of the pushed sequence. Every other
// summary type is refused: shards ship raw runs, and the coordinator pushes
// them through its own summary in either estimation mode.
//
// The encoding is little-endian with IEEE-754 bit patterns for floats:
// bit-exact and locale-free, like core.AppendCanonical.
func EncodeSummary(s SampleSummary) ([]byte, error) {
	fs, ok := s.(*FullSummary)
	if !ok {
		return nil, fmt.Errorf("stats: cannot encode summary type %T", s)
	}
	w := newWireWriter()
	w.byte(wireKindFull)
	w.bool(fs.iid != nil)
	w.int(fs.peak)
	w.floats(fs.sample)
	w.u64(wireSum(w.buf))
	return w.buf, nil
}

// wireSum is the frame checksum: 64-bit FNV-1a over every preceding byte.
// It is an integrity check against accidental corruption in transit, not an
// authenticity measure — transport security is the deployment's job.
func wireSum(b []byte) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// DecodeSummary reverses EncodeSummary. The decoded summary is fully usable:
// pushing further runs and reporting behave exactly as on the original.
func DecodeSummary(b []byte) (*FullSummary, error) {
	r := &wireReader{buf: b}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && magic != wireMagic {
		return nil, fmt.Errorf("stats: not an encoded summary (bad magic %q)", magic[:])
	}
	if v := r.int(); r.err == nil && v != SummaryWireVersion {
		return nil, fmt.Errorf("stats: summary wire version %d, this build speaks %d", v, SummaryWireVersion)
	}
	// Verify the trailing checksum before trusting a single payload byte,
	// then hide it from the reader so the trailing-bytes check still holds.
	if r.err == nil {
		if len(b) < r.off+8 {
			return nil, fmt.Errorf("stats: decoding summary: frame too short for checksum")
		}
		body, tail := b[:len(b)-8], b[len(b)-8:]
		if got, want := binary.LittleEndian.Uint64(tail), wireSum(body); got != want {
			return nil, fmt.Errorf("stats: summary frame checksum mismatch (corrupt wire bytes)")
		}
		r.buf = body
	}
	if kind := r.byte(); r.err == nil && kind != wireKindFull {
		return nil, fmt.Errorf("stats: unknown summary wire kind %d", kind)
	}
	inc := r.bool()
	peak := r.int()
	sample := r.floats()
	if r.err != nil {
		return nil, fmt.Errorf("stats: decoding summary: %w", r.err)
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("stats: decoding summary: %d trailing bytes", len(r.buf)-r.off)
	}
	fs := NewFullSummary(inc)
	fs.Push(sample)
	fs.peak = peak
	return fs, nil
}

// wireWriter appends little-endian primitives to a growing buffer.
type wireWriter struct {
	buf []byte
}

func newWireWriter() *wireWriter {
	w := &wireWriter{buf: make([]byte, 0, 256)}
	w.buf = append(w.buf, wireMagic[:]...)
	w.int(SummaryWireVersion)
	return w
}

func (w *wireWriter) byte(b byte) { w.buf = append(w.buf, b) }

func (w *wireWriter) bool(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *wireWriter) u64(v uint64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) int(v int)       { w.u64(uint64(int64(v))) }
func (w *wireWriter) float(v float64) { w.u64(math.Float64bits(v)) }

func (w *wireWriter) floats(vs []float64) {
	w.int(len(vs))
	for _, v := range vs {
		w.float(v)
	}
}

// wireReader consumes little-endian primitives; the first failure latches in
// err and every subsequent read returns zero values, so decode paths check
// once at the end.
type wireReader struct {
	buf []byte
	off int
	err error
}

// maxWireSlice bounds decoded slice lengths against corrupt or hostile
// length prefixes: allocation stays proportional to the input, never to a
// forged 2^60 count.
const maxWireSlice = 1 << 30

func (r *wireReader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.off < len(dst) {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
}

func (r *wireReader) byte() byte {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *wireReader) bool() bool { return r.byte() != 0 }

func (r *wireReader) u64() uint64 {
	var b [8]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (r *wireReader) int() int       { return int(int64(r.u64())) }
func (r *wireReader) float() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) sliceLen() int {
	n := r.int()
	if r.err == nil && (n < 0 || n > maxWireSlice || n*8 > len(r.buf)-r.off) {
		r.err = fmt.Errorf("implausible slice length %d at offset %d", n, r.off)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *wireReader) floats() []float64 {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}
