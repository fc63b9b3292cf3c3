package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// SummaryWireVersion is the version of the runs frame below, which carries
// a campaign shard's runs from worker to coordinator. Two builds
// interoperate exactly when they agree on this version; DecodeRuns rejects
// foreign versions outright (the shard is then recomputed locally — a
// correctness non-event, like a foreign-schema store entry reading as a
// miss). Any change to the frame layout MUST bump this constant.
//
// Version 3 is the runs alone. Version 2 also carried a summary kind, a
// battery mode and a peak, which no reader used.
const SummaryWireVersion = 3

// wireMagic brands every frame; a result-store JSON body or a truncated
// frame fails fast instead of decoding into garbage.
var wireMagic = [4]byte{'P', 'T', 'S', 'M'}

// wireHeader is the frame's length before the runs: magic, version and run
// count. The checksum follows the runs.
const wireHeader = 4 + 8 + 8

// EncodeRuns frames runs for transport: magic, version, run count, each run
// as its IEEE-754 bits, then a checksum over all of that; little-endian,
// RunsFrameLen(len(runs)) bytes. Bit-exact and locale-free, like
// core.AppendCanonical.
func EncodeRuns(runs []float64) []byte {
	b := make([]byte, 0, RunsFrameLen(len(runs)))
	b = append(b, wireMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, SummaryWireVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(runs)))
	for _, v := range runs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(b, wireSum(b))
}

// RunsFrameLen is the size of the runs frame of n runs, 28 + 8·n bytes, so
// a reader knows in advance how much a well-formed reply can hold.
func RunsFrameLen(n int) int { return wireHeader + 8*n + 8 }

// wireSum is the frame checksum: 64-bit FNV-1a over every preceding byte.
// A corrupted byte anywhere in the frame fails decoding instead of silently
// flipping a run, which would break the coordinator/worker bit-identity
// undetectably. It is an integrity check against accidental corruption in
// transit, not an authenticity measure — transport security is the
// deployment's job.
func wireSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// DecodeRuns returns the runs of a frame EncodeRuns wrote, in run order. It
// checks the magic, the version and the checksum, and that the run count
// fills the frame exactly, before it allocates: a forged count cannot make
// it allocate more than the frame's own size.
func DecodeRuns(b []byte) ([]float64, error) {
	if len(b) < wireHeader+8 {
		return nil, fmt.Errorf("stats: runs frame of %d bytes, shorter than header and checksum", len(b))
	}
	if [4]byte(b) != wireMagic {
		return nil, fmt.Errorf("stats: not a runs frame (bad magic %q)", b[:4])
	}
	if v := binary.LittleEndian.Uint64(b[4:]); v != SummaryWireVersion {
		return nil, fmt.Errorf("stats: runs frame version %d, this build speaks %d", v, SummaryWireVersion)
	}
	body := b[:len(b)-8]
	if binary.LittleEndian.Uint64(b[len(body):]) != wireSum(body) {
		return nil, fmt.Errorf("stats: runs frame checksum mismatch (corrupt wire bytes)")
	}
	n, payload := binary.LittleEndian.Uint64(b[12:]), len(body)-wireHeader
	if payload%8 != 0 || n != uint64(payload/8) {
		return nil, fmt.Errorf("stats: runs frame counts %d runs in %d payload bytes", n, payload)
	}
	runs := make([]float64, n)
	for i := range runs {
		runs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[wireHeader+8*i:]))
	}
	return runs, nil
}

// EncodeSummary frames a full summary's run-ordered sample with EncodeRuns
// and refuses every other summary type. Its battery mode and peak do not
// travel.
func EncodeSummary(s SampleSummary) ([]byte, error) {
	fs, ok := s.(*FullSummary)
	if !ok {
		return nil, fmt.Errorf("stats: cannot encode summary type %T", s)
	}
	return EncodeRuns(fs.Sample()), nil
}

// DecodeSummary pushes a frame's runs into a NewFullSummary(false). The
// summary is live and has the encoded summary's views; its battery is the
// one-shot reference battery.
func DecodeSummary(b []byte) (*FullSummary, error) {
	runs, err := DecodeRuns(b)
	if err != nil {
		return nil, err
	}
	fs := NewFullSummary(false)
	fs.Push(runs)
	return fs, nil
}
