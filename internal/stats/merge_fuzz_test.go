package stats

import (
	"math"
	"slices"
	"testing"

	"pubtac/internal/rng"
)

// The element-by-element merges and KS walks that the galloping ones in
// mergeInto, mergeTopKInPlace and ksFirstVsSketch, and the run walk of
// ksFirstVsRest, replaced, kept as their oracles.

// flat returns the values of a sorted view, ascending, in one slice.
func flat(s Sorted) []float64 { return s.Top(s.Len()) }

// linearMerge is mergeFlat merging one value at a time: a's next value
// goes first while it is <= b's.
func linearMerge(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// linearMergeTopK is mergeTopKInPlace walking both sides one value at a
// time: down from the top until the K slots are spoken for, then up from
// the bottom until the entrants are spent.
func linearMergeTopK(tailSorted, sortedIn []float64) {
	k := len(tailSorted)
	i, j := k-1, len(sortedIn)-1
	for n := 0; n < k && j >= 0; n++ {
		if sortedIn[j] >= tailSorted[i] {
			j--
		} else {
			i--
		}
	}
	in := sortedIn[j+1:]
	t := len(in)
	for w, a, b := 0, t, 0; b < t; w++ {
		if a < k && tailSorted[a] <= in[b] {
			tailSorted[w] = tailSorted[a]
			a++
		} else {
			tailSorted[w] = in[b]
			b++
		}
	}
}

// linearKSFirstVsRest is ksFirstVsRest on flat sorted copies of the whole
// sample and of its first half, stepping over ties one value at a time.
func linearKSFirstVsRest(full, first []float64) float64 {
	n, n1 := len(full), len(first)
	n2 := n - n1
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f1, f2 := float64(n1), float64(n2)
	var d float64
	i, j := 0, 0
	for j < n {
		x := full[j]
		for j < n && full[j] <= x {
			j++
		}
		for i < n1 && first[i] <= x {
			i++
		}
		if diff := math.Abs(float64(i)/f1 - float64(j-i)/f2); diff > d {
			d = diff
		}
	}
	return d
}

// linearKSFirstVsSketch is ksFirstVsSketch stepping over the first half's
// ties one value at a time.
func linearKSFirstVsSketch(sk *QuantileSketch, first []float64, n int) float64 {
	n1 := len(first)
	n2 := n - n1
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f1, f2 := float64(n1), float64(n2)
	var d float64
	i := 0
	var cum int64
	for b, x := range sk.vals {
		cum += sk.counts[b]
		for i < n1 && first[i] <= x {
			i++
		}
		if diff := math.Abs(float64(i)/f1 - float64(int(cum)-i)/f2); diff > d {
			d = diff
		}
	}
	return d
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// viewState is what a snapshot test reads off a view.
type viewState struct {
	n        int
	min, max float64
	tail     []float64
}

func readView(v SampleView) viewState {
	st := viewState{n: v.N(), tail: slices.Clone(flat(v.TailSorted()))}
	if st.n > 0 {
		st.min, st.max = v.Min(), v.Max()
	}
	return st
}

func (a viewState) equal(b viewState) bool {
	return a.n == b.n && math.Float64bits(a.min) == math.Float64bits(b.min) &&
		math.Float64bits(a.max) == math.Float64bits(b.max) && sameBits(a.tail, b.tail)
}

// FuzzMergeSortedMatchesLinear holds the galloping flat merges and the KS
// walks to the element-by-element code they replaced, bit for bit:
//
//   - mergeFlat of two sorted copies, which may hold ±0 and NaN, and
//     returns an exact-size slice;
//   - mergeTopKInPlace on NaN-free sorted sides of any sizes;
//   - along a NaN-free merge chain pushed in chunks: the chained
//     mergeFlat, growSortedPrefix grown in place to half the runs, the
//     streaming reservoir, ksFirstVsSketch on the grown first half, and
//     the full summary's KS statistic (ksFirstVsRest over its runs);
//   - views taken from a full and a streaming summary before each push of
//     the chain are unchanged after it.
//
// levels is the number of distinct values (0: continuous values, nearly
// all distinct), so small levels give long tie runs. Bit 0 of special mixes
// in ±0 and bit 1 NaN. The leading values come from data, the rest from a
// generator seeded with seed.
func FuzzMergeSortedMatchesLinear(f *testing.F) {
	for _, levels := range []uint8{0, 1, 2, 9, 255} {
		for _, size := range []uint16{0, 1, 5, 300, 3000} {
			for special := uint8(0); special < 4; special++ {
				f.Add(uint64(size)+uint64(levels), size, size/3, levels, special, uint16(64), uint16(0), []byte(nil))
			}
		}
	}
	// Far fewer entrants than zeros at the bottom of the reservoir side:
	// -0 and +0 entrants tie with -0 and +0 evictees.
	f.Add(uint64(4), uint16(3000), uint16(100), uint8(9), uint8(1), uint16(64), uint16(0), []byte(nil))
	f.Add(uint64(5), uint16(500), uint16(20), uint8(0), uint8(1), uint16(7), uint16(0), []byte(nil))
	f.Add(uint64(1), uint16(2000), uint16(0), uint8(3), uint8(0), uint16(1), uint16(100), []byte(nil))
	f.Add(uint64(2), uint16(0), uint16(2000), uint8(200), uint8(1), uint16(513), uint16(7), []byte(nil))
	f.Add(uint64(3), uint16(40), uint16(40), uint8(4), uint8(3), uint16(3), uint16(0), []byte{0, 0, 0, 1, 1, 3, 3, 3})

	f.Fuzz(func(t *testing.T, seed uint64, na, nb uint16, levels, special uint8, chunk, budget uint16, data []byte) {
		gen := rng.New(seed)
		at := 0
		draw := func(nan bool) float64 {
			var v float64
			switch {
			case at < len(data):
				v = 40000 + float64(int(data[at])%max(int(levels), 1))
			case levels == 0:
				v = 40000 + gen.Float64()*1e4
			default:
				v = 40000 + math.Floor(gen.Float64()*float64(levels))
			}
			at++
			switch {
			case special&1 != 0 && at%5 == 0:
				v = math.Copysign(0, float64(at%2)-0.5)
			case nan && special&2 != 0 && at%11 == 0:
				v = math.NaN()
			}
			return v
		}
		sample := func(n int, nan bool) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw(nan)
			}
			return xs
		}
		xa, xb := sample(int(na)%3001, true), sample(int(nb)%3001, true)

		a, b := sortedFlat(xa), sortedFlat(xb)
		got := mergeFlat(a, b)
		if want := linearMerge(a, b); !sameBits(got, want) {
			t.Fatalf("mergeFlat\n  %v\nwant\n  %v", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("mergeFlat: len %d, cap %d: not exact-size", len(got), cap(got))
		}

		ya, yb := sample(len(xa), false), sample(len(xb), false)
		if len(ya) > 0 {
			top, in := sortedFlat(ya), sortedFlat(yb)
			got, want := slices.Clone(top), slices.Clone(top)
			mergeTopKInPlace(got, in)
			linearMergeTopK(want, in)
			if !sameBits(got, want) {
				t.Fatalf("mergeTopKInPlace(%v, %v)\n  %v\nwant\n  %v", top, in, got, want)
			}
		}

		runs := append(ya, yb...)
		n := len(runs)
		step := max(int(chunk)%(n+1), 1, n/128)
		k := MinStreamBudget + int(budget)%512
		var chain, prefix []float64
		var wantChain, wantPrefix []float64
		full, stream := NewFullSummary(true), NewStreamingSummary(k)
		sk := NewQuantileSketch(k)
		var wantTail []float64
		for lo := 0; lo < n; lo += step {
			block := runs[lo:min(lo+step, n)]
			hi := lo + len(block)

			chain = mergeFlat(chain, sortedFlat(block))
			wantChain = linearMerge(wantChain, sortedFlat(block))
			if !sameBits(chain, wantChain) {
				t.Fatalf("chain to %d runs: mergeFlat diverged", hi)
			}

			h := hi / 2
			prefix = growSortedPrefix(prefix, runs, h)
			if h > len(wantPrefix) {
				wantPrefix = linearMerge(wantPrefix, sortedFlat(runs[len(wantPrefix):h]))
			}
			if !sameBits(prefix, wantPrefix) {
				t.Fatalf("chain to %d runs: growSortedPrefix to %d\n  %v\nwant\n  %v", hi, h, prefix, wantPrefix)
			}

			sk.Push(block)
			if got, want := ksFirstVsSketch(sk, prefix, hi), linearKSFirstVsSketch(sk, wantPrefix, hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("chain to %d runs: ksFirstVsSketch = %v, want %v", hi, got, want)
			}

			views := []SampleView{full.View(), stream.View()}
			before := []viewState{readView(views[0]), readView(views[1])}
			full.Push(block)
			stream.Push(block)
			rep := full.IID()
			stream.IID()
			if want := linearKSFirstVsRest(wantChain, wantPrefix); hi >= 4 && math.Float64bits(rep.Identical.Statistic) != math.Float64bits(want) {
				t.Fatalf("chain to %d runs: full summary's KS statistic = %v, want %v", hi, rep.Identical.Statistic, want)
			}
			for i, v := range views {
				if after := readView(v); !after.equal(before[i]) {
					t.Fatalf("chain to %d runs: view %d changed by a push: %+v, was %+v", hi, i, after, before[i])
				}
			}

			if len(wantTail) < k {
				merged := linearMerge(wantTail, sortedFlat(block))
				wantTail = slices.Clone(merged[max(len(merged)-k, 0):])
			} else {
				var in []float64
				for _, v := range block {
					if v > wantTail[0] {
						in = append(in, v)
					}
				}
				linearMergeTopK(wantTail, sortedFlat(in))
			}
			if !sameBits(stream.tail, wantTail) {
				t.Fatalf("chain to %d runs: reservoir\n  %v\nwant\n  %v", hi, stream.tail, wantTail)
			}
		}
	})
}
