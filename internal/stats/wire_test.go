package stats

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// wireArms builds one full summary per battery mode so every wire test
// covers both.
func wireArms() map[string]func() *FullSummary {
	return map[string]func() *FullSummary{
		"full":           func() *FullSummary { return NewFullSummary(false) },
		"full/increment": func() *FullSummary { return NewFullSummary(true) },
	}
}

// sameSummary asserts that two summaries are observationally identical:
// every view query, the battery report, and — the strongest check — the wire
// encoding itself, byte for byte.
func sameSummary(t *testing.T, label string, a, b SampleSummary) {
	t.Helper()
	sameView(t, label, a.View(), b.View())
	if a.IID() != b.IID() {
		t.Fatalf("%s: IID report %+v != %+v", label, a.IID(), b.IID())
	}
	ea, errA := EncodeSummary(a)
	eb, errB := EncodeSummary(b)
	if errA != nil || errB != nil {
		t.Fatalf("%s: re-encode errors %v / %v", label, errA, errB)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: re-encoded bytes differ (%d vs %d bytes)", label, len(ea), len(eb))
	}
}

// The fundamental wire contract: decode(encode(s)) is observationally
// bit-identical to s, in both battery modes, and the decoded summary stays
// live — pushing the same continuation into both sides keeps them equal.
func TestSummaryWireRoundTrip(t *testing.T) {
	xs := gapSample(3, 4000)
	head, cont := xs[:2500], xs[2500:]
	for name, mk := range wireArms() {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			pushBlocks(orig, head, 64)
			enc, err := EncodeSummary(orig)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := DecodeSummary(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if orig.PeakBytes() != dec.PeakBytes() {
				t.Fatalf("PeakBytes %d != %d", orig.PeakBytes(), dec.PeakBytes())
			}
			sameSummary(t, "decoded", orig, dec)
			// Decoded summaries are live, not read-only snapshots.
			pushBlocks(orig, cont, 64)
			pushBlocks(dec, cont, 64)
			sameSummary(t, "decoded+pushed", orig, dec)
		})
	}
}

// The full-summary frame is pinned byte for byte: coordinators and workers
// from different builds interoperate only while this encoding and
// SummaryWireVersion stay put. Changing the frame means bumping the version
// and re-taking these bytes.
func TestSummaryWireGoldenFrame(t *testing.T) {
	golden := map[bool]string{
		false: "5054534d0200000000000000010030000000000000000300000000000000000000002088e34000000000d087e340000000004089e34048e72062615b19cc",
		true:  "5054534d0200000000000000010160010000000000000300000000000000000000002088e34000000000d087e340000000004089e3405071eb3d899aadf3",
	}
	for inc, want := range golden {
		sum := NewFullSummary(inc)
		sum.Push([]float64{40001, 39998.5})
		sum.Push([]float64{40010})
		enc, err := EncodeSummary(sum)
		if err != nil {
			t.Fatalf("incremental=%v: encode: %v", inc, err)
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("incremental=%v: frame changed:\n  got  %s\n  want %s", inc, got, want)
		}
	}
}

// A shard worker frames its runs with EncodeRuns and builds no summary. The
// frame must be the one EncodeSummary writes for a NewFullSummary(false)
// fed the same runs, byte for byte, and DecodeRuns must read the runs back
// bit for bit.
func TestEncodeRunsIsSummaryFrame(t *testing.T) {
	for _, n := range []int{0, 1, 3, 256, 4096} {
		runs := gridSample(uint64(n)+1, n)
		sum := NewFullSummary(false)
		pushBlocks(sum, runs, 100)
		want, err := EncodeSummary(sum)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		got := EncodeRuns(runs)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: runs frame differs from the full-summary frame:\n  got  %x\n  want %x", n, got, want)
		}
		back, err := DecodeRuns(got)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !slices.EqualFunc(back, runs, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("n=%d: decoded runs differ", n)
		}
	}
}

// Foreign versions, foreign magic, unknown kinds, truncation and trailing
// garbage must all be rejected — never misdecoded — and the encoder refuses
// every summary but a full one.
func TestSummaryWireRejectsForeign(t *testing.T) {
	stream := NewStreamingSummary(64)
	stream.Push(gridSample(1, 100))
	if _, err := EncodeSummary(stream); err == nil {
		t.Error("encoder accepted a streaming summary")
	}

	sum := NewFullSummary(true)
	sum.Push(gridSample(1, 500))
	enc, err := EncodeSummary(sum)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	mutants := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), enc[4:]...),
		"foreign version": func() []byte {
			b := bytes.Clone(enc)
			b[4] = byte(SummaryWireVersion + 1)
			return b
		}(),
		"unknown kind": func() []byte {
			b := bytes.Clone(enc)
			b[12] = 0x7f
			return b
		}(),
		"truncated": enc[:len(enc)-5],
		"trailing":  append(bytes.Clone(enc), 0),
		"forged length": func() []byte {
			// Sample-length word pointing far past the buffer.
			b := bytes.Clone(enc[:22])
			return append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
		}(),
	}
	for name, b := range mutants {
		if _, err := DecodeSummary(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// Every single-byte in-place corruption must be rejected, wherever it lands:
// magic and header fail structurally, and a flipped payload byte — which
// before the v2 checksum decoded silently into a wrong float, breaking
// coordinator/worker bit-identity undetectably — fails the frame checksum.
// This is the property the fault injector's Corrupt action leans on: a
// corrupted shard reply becomes a retryable decode error, never a wrong
// result.
func TestSummaryWireDetectsCorruption(t *testing.T) {
	for name, mk := range wireArms() {
		t.Run(name, func(t *testing.T) {
			sum := mk()
			sum.Push(gridSample(3, 400))
			enc, err := EncodeSummary(sum)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			for i := range enc {
				mut := bytes.Clone(enc)
				mut[i] ^= 0x20
				if _, err := DecodeSummary(mut); err == nil {
					t.Fatalf("flipping byte %d of %d went undetected", i, len(enc))
				}
			}
		})
	}
}

// The wire encoding serializes unexported state field by field, so any field
// added to this struct silently vanishes from the wire unless this list —
// and SummaryWireVersion — is updated. Same discipline as
// TestCanonicalEncodingFieldsPinned for core.AppendCanonical.
func TestSummaryWireFieldsPinned(t *testing.T) {
	pinned := map[reflect.Type][]string{
		reflect.TypeOf(FullSummary{}): {"sample", "sorted", "iid", "peak"},
	}
	for typ, want := range pinned {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		sort.Strings(got)
		wantSorted := append([]string(nil), want...)
		sort.Strings(wantSorted)
		if !reflect.DeepEqual(got, wantSorted) {
			t.Errorf("%s fields changed:\n  got  %v\n  want %v\nupdate the wire encoding (and bump SummaryWireVersion) before updating this list",
				typ.Name(), got, wantSorted)
		}
	}
}
