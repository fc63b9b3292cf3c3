package stats

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzDecodeSummary feeds DecodeSummary the bytes a coordinator accepts from
// its peers. No input may panic. DecodeRuns, which a coordinator's client
// reads shards with, must accept exactly the frames DecodeSummary accepts
// and return the same sample bits. A frame the decoder accepts must be
// self-consistent (28 header and checksum bytes plus 8 per run), re-encode
// byte for byte, and reject every single-bit flip of itself: the checksum
// leaves no way to corrupt one bit undetected.
func FuzzDecodeSummary(f *testing.F) {
	for _, n := range []int{0, 2, 512} {
		f.Add(EncodeRuns(gridSample(uint64(n), n)))
	}
	for _, n := range []int{0, 1, 3, 64} {
		sum := NewFullSummary(true)
		sum.Push(gridSample(uint64(n), n))
		enc, err := EncodeSummary(sum)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, h := range version2Frames {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	enc := EncodeRuns(gridSample(5, 3))
	f.Add(enc[:len(enc)-5])
	badMagic := bytes.Clone(enc)
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Add(append(bytes.Clone(enc), 0))
	f.Add(forgeCount(enc, 4))

	f.Fuzz(func(t *testing.T, frame []byte) {
		fs, err := DecodeSummary(frame)
		runs, errRuns := DecodeRuns(frame)
		if (err == nil) != (errRuns == nil) {
			t.Fatalf("DecodeSummary error %v, DecodeRuns error %v", err, errRuns)
		}
		if err != nil {
			return
		}
		if !sameBits(runs, fs.Sample()) {
			t.Fatal("DecodeRuns and DecodeSummary read different sample bits")
		}
		n := fs.N()
		if n != len(fs.Sample()) {
			t.Fatalf("N() = %d but the sample holds %d runs", n, len(fs.Sample()))
		}
		if want := 28 + 8*n; len(frame) != want {
			t.Fatalf("accepted a %d-byte frame for %d runs, want %d bytes", len(frame), n, want)
		}
		if again := EncodeRuns(runs); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n  got  %x\n  want %x", again, frame)
		}
		if again, err := EncodeSummary(fs); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("decoded summary re-encodes differently (err %v)", err)
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
