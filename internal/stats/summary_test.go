package stats

import (
	"math"
	"slices"
	"testing"

	"pubtac/internal/rng"
)

// gridSample returns n execution-time-like values: integer cycles on a
// coarse grid (distinct values stay far below typical sketch budgets, so the
// sketch remains exact — the regime real campaigns live in).
func gridSample(seed uint64, n int) []float64 {
	gen := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Floor(gen.Float64()*800) + 40000
	}
	return xs
}

// gapSample returns n values strictly split around a central gap: even
// indices land at 40000+1..51, odd indices at 40000-51..-1. Every
// even-length prefix has exactly as many highs as lows, so the type-7
// median of any even-length prefix falls strictly inside the gap: no value
// ever ties the median, and the runs-test dichotomization is identical no
// matter when or from which (even-sized) prefix the median is taken. This
// pins the one streaming battery approximation (per-block medians) and
// makes the whole battery comparable bit for bit.
func gapSample(seed uint64, n int) []float64 {
	gen := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		off := 1 + math.Floor(gen.Float64()*50)
		if i%2 == 1 {
			off = -off
		}
		xs[i] = 40000 + off
	}
	return xs
}

// pushBlocks feeds xs into sum in blocks of size block.
func pushBlocks(sum SampleSummary, xs []float64, block int) {
	for lo := 0; lo < len(xs); lo += block {
		hi := lo + block
		if hi > len(xs) {
			hi = len(xs)
		}
		sum.Push(xs[lo:hi])
	}
}

// sameView asserts bit-identity of the estimation surface two views expose:
// size, extremes, the exact upper tail, and rank queries.
func sameView(t *testing.T, label string, a, b SampleView) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: N %d != %d", label, a.N(), b.N())
	}
	if a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("%s: extremes (%v,%v) != (%v,%v)", label, a.Min(), a.Max(), b.Min(), b.Max())
	}
	ta, tb := a.TailSorted(), b.TailSorted()
	for i := 1; i <= min(ta.Len(), tb.Len()); i++ {
		if ta.FromTop(i) != tb.FromTop(i) {
			t.Fatalf("%s: TailSorted from top %d: %v != %v", label, i, ta.FromTop(i), tb.FromTop(i))
		}
	}
	for i := 1; i <= a.N(); i = i*2 + 1 {
		if a.FromTop(i) != b.FromTop(i) {
			t.Fatalf("%s: FromTop(%d): %v != %v", label, i, a.FromTop(i), b.FromTop(i))
		}
	}
	for _, x := range []float64{0, a.Min() - 1, a.Min(), a.FromTop((a.N() + 1) / 2), a.Max(), a.Max() + 1} {
		if a.CountLE(x) != b.CountLE(x) {
			t.Fatalf("%s: CountLE(%v): %d != %d", label, x, a.CountLE(x), b.CountLE(x))
		}
	}
}

// sameQuantiles asserts that the streaming sketch reproduces the full
// sample's type-7 quantiles bit for bit (the battery's median reads them).
func sameQuantiles(t *testing.T, label string, full *FullSummary, stream *StreamingSummary) {
	t.Helper()
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1} {
		if f, s := QuantileSorted(full.sorted, q), stream.sketch.Quantile(q); f != s {
			t.Fatalf("%s: Quantile(%v): %v != %v", label, q, f, s)
		}
	}
}

// TestStreamingSummaryMatchesFullSummary is the oracle-pair equivalence test
// of the "summary" pair: a StreamingSummary whose reservoir covers the
// sample and whose sketch stays exact must reproduce the FullSummary
// reference bit for bit — estimation surface, snapshot views, and (on the
// gap construction, which removes the per-block-median caveat) the whole
// admissibility battery; Ljung-Box agrees to reassociation error.
func TestStreamingSummaryMatchesFullSummary(t *testing.T) {
	cases := []struct {
		name  string
		xs    []float64
		block int
		// exactRuns: the gap construction pins the dichotomization, so the
		// runs test is bit-identical. On a plain random grid pushed in
		// blocks the per-block medians drift while the sample is small —
		// the documented streaming approximation — so the runs statistic
		// only agrees approximately there.
		exactRuns bool
	}{
		{"one-block", gapSample(3, 1500), 1500, true},
		{"blocked", gapSample(3, 1500), 250, true},
		{"grid-blocked", gridSample(7, 1400), 200, false},
		{"tiny", gapSample(9, 40), 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := NewFullSummary(true)
			stream := NewStreamingSummary(1024)
			pushBlocks(full, c.xs, c.block)
			pushBlocks(stream, c.xs, c.block)

			if stream.Bytes() == 0 || stream.PeakBytes() < stream.Bytes() {
				t.Fatalf("memory accounting: bytes %d, peak %d", stream.Bytes(), stream.PeakBytes())
			}
			sameView(t, "view", full.View(), stream.View())
			sameQuantiles(t, "summary", full, stream)

			fi, si := full.IID(), stream.IID()
			if c.exactRuns && !sameResult(fi.Runs, si.Runs) {
				t.Fatalf("runs test diverged: %+v vs %+v", fi.Runs, si.Runs)
			}
			if !c.exactRuns && math.Abs(fi.Runs.Statistic-si.Runs.Statistic) > 0.25 {
				t.Fatalf("runs test drifted too far: %+v vs %+v", fi.Runs, si.Runs)
			}
			if !sameResult(fi.Identical, si.Identical) {
				t.Fatalf("ks test diverged: %+v vs %+v", fi.Identical, si.Identical)
			}
			if !closeResult(fi.LjungBox, si.LjungBox, 1e-8) {
				t.Fatalf("ljung-box diverged: %+v vs %+v", fi.LjungBox, si.LjungBox)
			}

			// The views are snapshots: growing the summaries must not
			// change them.
			vf, vs := full.View(), stream.View()
			wantMax := vf.Max()
			full.Push([]float64{1e9})
			stream.Push([]float64{1e9})
			if vf.Max() != wantMax || vs.Max() != wantMax {
				t.Fatalf("views not snapshots: %v/%v after push, want %v", vf.Max(), vs.Max(), wantMax)
			}
		})
	}
}

// TestStreamingReservoirMatchesMergeTopK holds the reservoir's in-place
// merge to its definition: after every push, the reservoir is bit for bit
// the top K of mergeFlat(old reservoir, sorted block), on blocks larger
// and smaller than K, blocks entirely below, at or above the reservoir's
// minimum, and tie-heavy and continuous samples.
func TestStreamingReservoirMatchesMergeTopK(t *testing.T) {
	const budget = 128
	gen := rng.New(23)
	var blocks [][]float64
	for _, size := range []int{1, 7, 100, 127, 128, 129, 300, 512} {
		blocks = append(blocks, gridSample(uint64(size), size))
	}
	for i := 0; i < 40; i++ {
		b := make([]float64, 1+gen.Intn(200))
		for j := range b {
			switch i % 4 {
			case 0: // four levels: ties at the reservoir's minimum
				b[j] = 40000 + float64(gen.Intn(4))
			case 1: // below everything kept
				b[j] = 100 + gen.Float64()
			case 2: // above everything kept
				b[j] = 1e6 + float64(i)*1e3 + gen.Float64()
			default:
				b[j] = 40000 + gen.Float64()*1e5
			}
		}
		blocks = append(blocks, b)
	}
	s := NewStreamingSummary(budget)
	var want []float64
	for i, b := range blocks {
		s.Push(b)
		merged := mergeFlat(want, sortedFlat(b))
		want = merged[max(len(merged)-budget, 0):]
		if !sameBits(s.tail, want) {
			t.Fatalf("push %d (%d runs): reservoir\n  %v\nwant\n  %v", i, len(b), s.tail, want)
		}
	}
}

// TestStreamingViewSnapshotSurvivesReservoirChurn: a view taken from a full
// reservoir is a snapshot even though later pushes merge into the reservoir
// in place. Pushing runs above everything kept replaces most of the
// reservoir; the old view's tail, every FromTop within it, Max and CountLE
// must not change.
func TestStreamingViewSnapshotSurvivesReservoirChurn(t *testing.T) {
	const budget = 256
	s := NewStreamingSummary(budget)
	pushBlocks(s, gridSample(41, 3000), 512)
	v := s.View()
	tail := slices.Clone(flat(v.TailSorted()))
	fromTop := make([]float64, budget)
	for k := 1; k <= budget; k++ {
		fromTop[k-1] = v.FromTop(k)
	}
	maxV := v.Max()
	probes := []float64{v.Min() - 1, v.Min(), tail[0], tail[budget/2], maxV, maxV + 1}
	counts := make([]int, len(probes))
	for i, x := range probes {
		counts[i] = v.CountLE(x)
	}

	high := make([]float64, 3*budget/4)
	for i := range high {
		high[i] = 1e6 + float64(i)
	}
	pushBlocks(s, high, 64)
	if s.tail[budget/4] != high[0] {
		t.Fatalf("churn did not replace the reservoir's top three quarters")
	}

	if got := flat(v.TailSorted()); !sameBits(got, tail) {
		t.Fatal("the old view's TailSorted changed")
	}
	for k := 1; k <= budget; k++ {
		if got := v.FromTop(k); got != fromTop[k-1] {
			t.Fatalf("FromTop(%d) = %v after churn, was %v", k, got, fromTop[k-1])
		}
	}
	if v.Max() != maxV {
		t.Fatalf("Max = %v after churn, was %v", v.Max(), maxV)
	}
	for i, x := range probes {
		if got := v.CountLE(x); got != counts[i] {
			t.Fatalf("CountLE(%v) = %d after churn, was %d", x, got, counts[i])
		}
	}
}

// TestStreamingSummaryTailMatchesBeyondReservoir checks the partial-coverage
// regime: with n far above the budget, the reservoir still holds the exact
// top-K order statistics of the full sample, and rank queries below the
// reservoir resolve through the (here exact) sketch.
func TestStreamingSummaryTailMatchesBeyondReservoir(t *testing.T) {
	// 50 distinct grid values keep the sketch exact even at the floored
	// minimum budget, so every rank query resolves exactly.
	gen := rng.New(11)
	xs := make([]float64, 6000)
	for i := range xs {
		xs[i] = math.Floor(gen.Float64()*50) + 40000
	}
	full := NewFullSummary(true)
	stream := NewStreamingSummary(0) // floored to MinStreamBudget
	pushBlocks(full, xs, 512)
	pushBlocks(stream, xs, 512)

	vf, vs := full.View(), stream.View()
	if got := vs.TailSorted().Len(); got != MinStreamBudget {
		t.Fatalf("reservoir holds %d values, want %d", got, MinStreamBudget)
	}
	for k := 1; k <= len(xs); k = k*3 + 1 {
		if vf.FromTop(k) != vs.FromTop(k) {
			t.Fatalf("FromTop(%d): %v != %v", k, vf.FromTop(k), vs.FromTop(k))
		}
	}
	sameQuantiles(t, "beyond-reservoir", full, stream)
}

// TestStreamingSummaryDegenerateInputs: constant and tie-heavy samples, and
// samples smaller than the reservoir, must neither panic nor diverge from
// the reference.
func TestStreamingSummaryDegenerateInputs(t *testing.T) {
	t.Run("constant", func(t *testing.T) {
		s := NewStreamingSummary(64)
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = 7
		}
		pushBlocks(s, xs, 100)
		v := s.View()
		if v.Min() != 7 || v.Max() != 7 || s.sketch.Quantile(0.5) != 7 || v.FromTop(300) != 7 {
			t.Fatalf("constant summary broken: %v %v %v", v.Min(), v.Max(), s.sketch.Quantile(0.5))
		}
		rep := s.IID()
		if !rep.Passed(0.05) {
			t.Fatalf("constant sample rejected: %+v", rep)
		}
	})
	t.Run("tie-heavy", func(t *testing.T) {
		gen := rng.New(5)
		xs := make([]float64, 1200)
		for i := range xs {
			xs[i] = math.Floor(gen.Float64() * 4) // 4 distinct values
		}
		full := NewFullSummary(true)
		stream := NewStreamingSummary(1024)
		full.Push(xs) // single block: medians coincide by construction
		stream.Push(xs)
		sameView(t, "ties", full.View(), stream.View())
		sameQuantiles(t, "ties", full, stream)
		fi, si := full.IID(), stream.IID()
		if !sameResult(fi.Runs, si.Runs) || !sameResult(fi.Identical, si.Identical) {
			t.Fatalf("tie-heavy battery diverged: %+v vs %+v", fi, si)
		}
	})
	t.Run("smaller-than-reservoir", func(t *testing.T) {
		xs := gapSample(31, 40)
		full := NewFullSummary(true)
		stream := NewStreamingSummary(64)
		pushBlocks(full, xs, 8)
		pushBlocks(stream, xs, 8)
		sameView(t, "small", full.View(), stream.View())
		sameQuantiles(t, "small", full, stream)
		if len(stream.tail) != len(xs) {
			t.Fatalf("reservoir should hold the whole small sample: %d", len(stream.tail))
		}
	})
	t.Run("empty", func(t *testing.T) {
		s := NewStreamingSummary(64)
		s.Push(nil)
		if s.N() != 0 {
			t.Fatal("pushing nothing changed the count")
		}
		s.IID() // must not panic on an empty battery
	})
}

// TestStreamingSummaryMemoryBounded pins the tentpole's memory model: after
// 200k pushed runs at budget 256, the retained and peak bytes stay bounded
// by a function of the budget alone (reservoir + sketch + battery
// retention), independent of the run count.
func TestStreamingSummaryMemoryBounded(t *testing.T) {
	const budget = 256
	s := NewStreamingSummary(budget)
	gen := rng.New(77)
	block := make([]float64, 1000)
	var at50k int
	for pushed := 0; pushed < 200_000; pushed += len(block) {
		for i := range block {
			block[i] = gen.Float64() * 1e6 // continuous: forces sketch coarsening
		}
		s.Push(block)
		if pushed == 49_000 {
			at50k = s.PeakBytes()
		}
	}
	bound := 48*budget + 8192 // reservoir + sketch + battery retention + slack
	if s.PeakBytes() > bound {
		t.Fatalf("peak %d B exceeds budget bound %d B", s.PeakBytes(), bound)
	}
	if s.PeakBytes() > at50k {
		t.Fatalf("memory still growing past 50k runs: %d B -> %d B", at50k, s.PeakBytes())
	}
	if s.N() != 200_000 {
		t.Fatalf("n = %d", s.N())
	}
	// The sketch coarsened but its resolution stays within the documented
	// bound: step < 2·span/(budget-1).
	span := s.max - s.min
	if step := s.sketch.Step(); step <= 0 || step >= 2*span/float64(budget-1) {
		t.Fatalf("sketch step %v outside (0, %v)", step, 2*span/float64(budget-1))
	}
}

// TestFullSummaryPeakCountsRunsOnce pins the full summary's memory model:
// each run is counted once, as its 2-byte code, and everything else is a
// function of the d distinct values — 36 B each (value, count, view order
// and the view's run), the index at 4 B per slot (a power of two at least
// 16, at most half full), the view's flat top of min(n, 256) values and
// the Ljung-Box sums' first and last min(n, 20) runs, 8 B each. n runs
// pushed in 100-run blocks, with a report after each block, peak at that
// after every push; the battery retains nothing between reports.
func TestFullSummaryPeakCountsRunsOnce(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		sum := NewFullSummary(true)
		xs := gridSample(uint64(n), n)
		distinct := map[float64]bool{}
		for lo := 0; lo < n; lo += 100 {
			sum.Push(xs[lo : lo+100])
			sum.IID()
			for _, v := range xs[lo : lo+100] {
				distinct[v] = true
			}
			runs, d := lo+100, len(distinct)
			slots := 16
			for 2*d > slots {
				slots *= 2
			}
			want := 2*runs + 36*d + 4*slots + 8*min(runs, 256) + 16*min(runs, 20)
			if got := sum.PeakBytes(); got != want {
				t.Fatalf("n=%d, after %d runs (%d distinct): PeakBytes = %d, want %d", n, runs, d, got, want)
			}
		}
	}
}

// TestFullSummaryWidensCodes pushes 70,000 distinct values, in shuffled
// order, then 5,000 repeats of earlier ones, in 1,000-run chunks: the chunk
// of runs 65,000..65,999 holds the 65,537th distinct value, whose code
// needs 17 bits, so the run order widens to 4-byte codes in mid-push. The
// decoded sample must round-trip bit for bit; the view, the battery and
// the EncodeSummary frame must equal those of a summary fed the same runs
// in one push; and PeakBytes must follow TestFullSummaryPeakCountsRunsOnce's
// accounting at 2 B per run before the widening and 4 B after it.
func TestFullSummaryWidensCodes(t *testing.T) {
	const distinct, repeats, chunk = 70_000, 5_000, 1_000
	gen := rng.New(26)
	xs := make([]float64, distinct, distinct+repeats)
	for i := range xs {
		xs[i] = 40000 + float64(i) + gen.Float64()/2
	}
	for i := len(xs) - 1; i > 0; i-- {
		j := gen.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
	for range repeats {
		xs = append(xs, xs[gen.Intn(distinct)])
	}
	peak := func(runs, codeBytes, d int) int {
		slots := 16
		for 2*d > slots {
			slots *= 2
		}
		return codeBytes*runs + 36*d + 4*slots + 8*topLen + 16*20
	}

	chunked := NewFullSummary(true)
	for lo := 0; lo < len(xs); lo += chunk {
		chunked.Push(xs[lo : lo+chunk])
		if lo+chunk == 65_000 {
			if got, want := chunked.PeakBytes(), peak(65_000, 2, 65_000); got != want {
				t.Fatalf("before widening: PeakBytes = %d, want %d", got, want)
			}
		}
	}
	whole := NewFullSummary(true)
	whole.Push(xs)

	if got := chunked.Sample(); !sameBits(got, xs) {
		t.Fatal("the chunked summary's Sample does not round-trip")
	}
	if got := whole.Sample(); !sameBits(got, xs) {
		t.Fatal("the one-push summary's Sample does not round-trip")
	}
	if got, want := chunked.Prefix(65_537), xs[:65_537]; !sameBits(got, want) {
		t.Fatal("Prefix across the widening does not round-trip")
	}
	vc, vw := chunked.View(), whole.View()
	if got, want := flat(vc.TailSorted()), flat(vw.TailSorted()); !sameBits(got, want) || vc.N() != len(xs) {
		t.Fatalf("views differ: %d values, want %d", len(got), len(want))
	}
	for _, x := range []float64{40000, 45000.25, 65535 + 40000, 1e9} {
		if vc.CountLE(x) != vw.CountLE(x) {
			t.Fatalf("CountLE(%v): %d, want %d", x, vc.CountLE(x), vw.CountLE(x))
		}
	}
	if got, want := chunked.IID(), whole.IID(); got != want {
		t.Fatalf("IID %+v, want %+v", got, want)
	}
	ec, err := EncodeSummary(chunked)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := EncodeSummary(whole)
	if err != nil {
		t.Fatal(err)
	}
	if string(ec) != string(ew) || string(ec) != string(EncodeRuns(xs)) {
		t.Fatal("EncodeSummary frames differ")
	}
	want := peak(len(xs), 4, distinct)
	if got := chunked.PeakBytes(); got != want {
		t.Fatalf("chunked: PeakBytes = %d, want %d", got, want)
	}
	if got := whole.PeakBytes(); got != want {
		t.Fatalf("one push: PeakBytes = %d, want %d", got, want)
	}
}
