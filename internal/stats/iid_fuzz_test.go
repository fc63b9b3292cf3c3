package stats

import (
	"math"
	"testing"

	"pubtac/internal/rng"
)

// FuzzBatteryMatchesCheckIID drives the full summary's battery the way a
// campaign does — a NewFullSummary(true) fed in chunks, reporting on a
// schedule — and holds its final report to the one-shot CheckIID over the
// same sample: runs and KS bit for bit, Ljung-Box to reassociation error
// (TestIIDStateMatchesCheckIID's tolerances). A streaming summary takes the
// same pushes: after every push its Ljung-Box sums must equal those of
// refLjungBoxPush, the run-by-run fold, bit for bit, and the full summary's
// final Ljung-Box, one fold over the whole sample, must equal the report of
// those chunked sums bit for bit. The fuzz input chooses up to 3,000 values
// on an integer grid of 1..256 levels (ties and a moving median), the chunk
// size, the size of the first push when first > 0, and which blocks are
// followed by a report (bit k%64 of sched for block k). The leading values
// come from data, the rest from a generator seeded with seed.
func FuzzBatteryMatchesCheckIID(f *testing.F) {
	const everyThird = 0x9249249249249249
	for _, n := range []int{0, 1, 3, 4, 7, 257, 3000} {
		for _, chunk := range []int{1, 7, 19, 20, 21, 64, n + 1} {
			f.Add(uint16(n), uint16(chunk), uint8(0), uint8(n%200), uint64(everyThird), uint64(n), []byte(nil))
		}
	}
	for _, first := range []uint8{1, 7, 19, 20, 21} {
		f.Add(uint16(3000), uint16(512), first, uint8(150), uint64(everyThird), uint64(first), []byte(nil))
		f.Add(uint16(60), uint16(20), first, uint8(9), ^uint64(0), uint64(first)+1, []byte(nil))
	}
	f.Add(uint16(40), uint16(5), uint8(0), uint8(3), ^uint64(0), uint64(1), []byte{0, 0, 0, 2, 2, 2, 1, 1})
	f.Add(uint16(100), uint16(9), uint8(0), uint8(0), uint64(0), uint64(2), []byte(nil))

	f.Fuzz(func(t *testing.T, n, chunk uint16, first, grid uint8, sched, seed uint64, data []byte) {
		size := int(n) % 3001
		levels := int(grid) + 1
		gen := rng.New(seed)
		xs := make([]float64, size)
		for i := range xs {
			if i < len(data) {
				xs[i] = 40000 + float64(int(data[i])%levels)
			} else {
				xs[i] = 40000 + math.Floor(gen.Float64()*float64(levels))
			}
		}
		step := min(max(int(chunk), 1), size+1)

		sum := NewFullSummary(true)
		stream := NewStreamingSummary(MinStreamBudget)
		var ref ljungBoxSums
		for lo, k := 0, 0; lo < size; k++ {
			hi := min(lo+step, size)
			if k == 0 && first > 0 {
				hi = min(int(first), size)
			}
			sum.Push(xs[lo:hi])
			stream.Push(xs[lo:hi])
			refLjungBoxPush(&ref, xs[lo:hi])
			if d := diffLjungBoxSums(&stream.iid.lb, &ref); d != "" {
				t.Fatalf("n=%d chunk=%d first=%d: after the push of runs %d..%d the Ljung-Box sums differ from the run-by-run fold in %s", size, step, first, lo, hi, d)
			}
			if sched>>(k%64)&1 == 1 {
				sum.IID()
			}
			lo = hi
		}
		got, want := sum.IID(), CheckIID(xs)
		if !sameResult(got.Runs, want.Runs) {
			t.Fatalf("n=%d chunk=%d: runs %+v != one-shot %+v", size, step, got.Runs, want.Runs)
		}
		if !sameResult(got.Identical, want.Identical) {
			t.Fatalf("n=%d chunk=%d: identical %+v != one-shot %+v", size, step, got.Identical, want.Identical)
		}
		if !closeResult(got.LjungBox, want.LjungBox, 1e-8) {
			t.Fatalf("n=%d chunk=%d: ljung-box %+v != one-shot %+v", size, step, got.LjungBox, want.LjungBox)
		}
		if chunked := ref.report(func() []float64 { return xs }); !sameResult(got.LjungBox, chunked) {
			t.Fatalf("n=%d chunk=%d: one-pass ljung-box %+v != chunked fold's %+v", size, step, got.LjungBox, chunked)
		}
	})
}
