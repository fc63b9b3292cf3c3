package stats

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzDecodeSummary feeds DecodeSummary the bytes a coordinator accepts from
// its peers. No input may panic. A frame the decoder accepts must be
// self-consistent (38 header and checksum bytes plus 8 per run), survive a
// re-encode and decode with the same sample bits, and reject every
// single-bit flip of itself: the checksum leaves no way to corrupt one bit
// undetected.
func FuzzDecodeSummary(f *testing.F) {
	for _, n := range []int{0, 1, 3, 64} {
		for _, inc := range []bool{false, true} {
			sum := NewFullSummary(inc)
			sum.Push(gridSample(uint64(n), n))
			enc, err := EncodeSummary(sum)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	sum := NewFullSummary(true)
	sum.Push(gridSample(5, 3))
	enc, err := EncodeSummary(sum)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc[:len(enc)-5])
	badMagic := bytes.Clone(enc)
	badMagic[0] = 'X'
	f.Add(badMagic)

	f.Fuzz(func(t *testing.T, frame []byte) {
		fs, err := DecodeSummary(frame)
		if err != nil {
			return
		}
		n := fs.N()
		if n != len(fs.Sample()) {
			t.Fatalf("N() = %d but the sample holds %d runs", n, len(fs.Sample()))
		}
		if want := 38 + 8*n; len(frame) != want {
			t.Fatalf("accepted a %d-byte frame for %d runs, want %d bytes", len(frame), n, want)
		}
		again, err := EncodeSummary(fs)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeSummary(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded frame: %v", err)
		}
		if !slices.EqualFunc(back.Sample(), fs.Sample(), func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatal("re-encoded frame decodes to different sample bits")
		}
		mut := bytes.Clone(frame)
		for i := range mut {
			for bit := byte(1); bit != 0; bit <<= 1 {
				mut[i] ^= bit
				if _, err := DecodeSummary(mut); err == nil {
					t.Fatalf("flipping bit %#x of byte %d of %d went undetected", bit, i, len(mut))
				}
				mut[i] ^= bit
			}
		}
	})
}
