package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
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

// The wire contract: decode(encode(s)) carries s's runs bit for bit and has
// s's views, in both battery modes. The battery mode does not travel: the
// decoded summary runs the one-shot battery. It stays live, so pushing the
// same continuation into both sides keeps them equal.
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
			same := func(label string) {
				t.Helper()
				if !sameBits(dec.Sample(), orig.Sample()) {
					t.Fatalf("%s: decoded runs differ", label)
				}
				sameView(t, label, orig.View(), dec.View())
				if got, want := dec.IID(), CheckIID(orig.Sample()); got != want {
					t.Fatalf("%s: IID report %+v, want the one-shot battery's %+v", label, got, want)
				}
			}
			same("decoded")
			pushBlocks(orig, cont, 64)
			pushBlocks(dec, cont, 64)
			same("decoded+pushed")
		})
	}
}

// goldenRuns are the runs of the pinned frames below.
var goldenRuns = [][]float64{{40001, 39998.5}, {40010}}

// The runs frame is pinned byte for byte: coordinators and workers from
// different builds interoperate only while this encoding and
// SummaryWireVersion stay put. Changing the frame means bumping the version
// and re-taking these bytes. Both battery modes encode to the one frame.
func TestSummaryWireGoldenFrame(t *testing.T) {
	const want = "5054534d03000000000000000300000000000000" +
		"000000002088e34000000000d087e340000000004089e340" + "c8a2f3e5a0e96288"
	for name, mk := range wireArms() {
		sum := mk()
		for _, block := range goldenRuns {
			sum.Push(block)
		}
		enc, err := EncodeSummary(sum)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("%s: frame changed:\n  got  %s\n  want %s", name, got, want)
		}
	}
}

// The version-2 summary frames the previous golden pinned, for the two
// battery modes of goldenRuns: magic, version, kind, battery mode, peak,
// run count, runs and checksum.
var version2Frames = []string{
	"5054534d0200000000000000010030000000000000000300000000000000000000002088e34000000000d087e340000000004089e34048e72062615b19cc",
	"5054534d0200000000000000010160010000000000000300000000000000000000002088e34000000000d087e340000000004089e3405071eb3d899aadf3",
}

// A coordinator and a worker one version apart do not misread each other:
// a version-2 frame fails with a version error, so the fabric retries the
// shard and the coordinator finally recomputes it locally.
func TestDecodeRunsRejectsVersion2(t *testing.T) {
	for i, h := range version2Frames {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRuns(b); err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("frame %d: err = %v, want a version-2 error", i, err)
		}
	}
}

// A shard worker frames its runs with EncodeRuns and builds no summary. The
// frame is the one EncodeSummary writes for a NewFullSummary(false) fed the
// same runs, byte for byte, 28 + 8·n bytes, and DecodeRuns reads the runs
// back bit for bit.
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
		if len(got) != 28+8*n {
			t.Fatalf("n=%d: %d-byte frame, want %d", n, len(got), 28+8*n)
		}
		back, err := DecodeRuns(got)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !sameBits(back, runs) {
			t.Fatalf("n=%d: decoded runs differ", n)
		}
	}
}

// forgeCount rewrites a frame's run count and re-seals its checksum, so
// only the count check can catch it.
func forgeCount(frame []byte, n uint64) []byte {
	b := bytes.Clone(frame[:len(frame)-8])
	binary.LittleEndian.PutUint64(b[12:], n)
	return binary.LittleEndian.AppendUint64(b, wireSum(b))
}

// Foreign versions, foreign magic, truncation, trailing garbage and forged
// run counts must all be rejected — never misdecoded — and the encoder
// refuses every summary but a full one.
func TestSummaryWireRejectsForeign(t *testing.T) {
	stream := NewStreamingSummary(64)
	stream.Push(gridSample(1, 100))
	if _, err := EncodeSummary(stream); err == nil {
		t.Error("encoder accepted a streaming summary")
	}

	enc := EncodeRuns(gridSample(1, 500))
	mutants := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), enc[4:]...),
		"foreign version": func() []byte {
			b := bytes.Clone(enc)
			b[4] = byte(SummaryWireVersion + 1)
			return b
		}(),
		"truncated":        enc[:len(enc)-5],
		"trailing":         append(bytes.Clone(enc), 0),
		"forged length":    forgeCount(enc, 1<<61),
		"count one short":  forgeCount(enc, 499),
		"count one over":   forgeCount(enc, 501),
		"header truncated": enc[:wireHeader],
	}
	for name, b := range mutants {
		if _, err := DecodeSummary(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
		if _, err := DecodeRuns(b); err == nil {
			t.Errorf("%s: DecodeRuns accepted corrupt input", name)
		}
	}
}

// Every single-byte in-place corruption must be rejected, wherever it lands:
// magic and header fail structurally, and a flipped payload byte — which
// without the checksum would decode silently into a wrong float, breaking
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
