package stats

import (
	"math"
	"slices"
)

// iidMaxLags is the Ljung-Box lag budget of the i.i.d. battery: the MBPTA
// convention of 20 lags (short samples use n/4, see iidLags).
const iidMaxLags = 20

// fullIID is the full summary's battery: a few passes over the summary's
// codes, view and Ljung-Box sums, retaining nothing between reports.
//
//   - Ljung-Box reports the sums Push folded, which any chunking of the
//     pushes folds alike, so they are those of one fold over the whole
//     sample. It decodes the sample only when the ill-conditioned rescan
//     guard fires.
//   - The runs test dichotomizes at the view's median through a per-code
//     sign table: one pass over the codes.
//   - The two-half KS check counts the first half per code, one pass over
//     its codes, and walks the view's runs, which stand in for the second
//     half's own sorted copy.
//
// Runs and KS are bit-identical to CheckIID (same integer counts, same
// median, same evaluation points). Ljung-Box agrees with it to
// floating-point reassociation error: its autocorrelations are
// reconstructed from the moment sums instead of centered scans. CheckIID
// remains the reference oracle; see the equivalence tests.
//
//pubtac:fastpath iid
func fullIID(s *FullSummary) IIDReport {
	rep := IIDReport{
		Runs:      TestResult{Name: "runs", Statistic: 0, PValue: 1},
		LjungBox:  s.lb.report(s.Sample),
		Identical: TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1},
	}
	n := s.N()
	if n > 0 {
		med := s.sorted.Quantile(0.5)
		signs := make([]int8, len(s.dict))
		var r signRuns
		for c, v := range s.dict {
			switch {
			case v > med:
				signs[c] = 1
				r.n1 += s.counts[c]
			case v < med:
				signs[c] = -1
				r.n2 += s.counts[c]
			}
		}
		if s.codes32 != nil {
			r.runs = signChanges(s.codes32, signs)
		} else {
			r.runs = signChanges(s.codes16, signs)
		}
		rep.Runs = r.result()
	}
	if h := n / 2; n >= 4 {
		var perCode []int
		if s.codes32 != nil {
			perCode = countCodes(s.codes32[:h], len(s.dict))
		} else {
			perCode = countCodes(s.codes16[:h], len(s.dict))
		}
		first := make([]int, len(s.order))
		for r, c := range s.order {
			first[r] = perCode[c]
		}
		rep.Identical = ksResult(ksFirstVsRest(s.sorted, first, h), h, n-h)
	}
	return rep
}

// signChanges counts the sign runs of a run order given as codes, each
// code's sign read from signs; runs of sign 0 (tied with the median) are
// skipped, per the standard formulation.
func signChanges[C uint16 | uint32](codes []C, signs []int8) int {
	runs := 0
	var last int8
	for _, c := range codes {
		if sign := signs[c]; sign != 0 && sign != last {
			runs++
			last = sign
		}
	}
	return runs
}

// countCodes returns how many of codes hold each of the d codes.
func countCodes[C uint16 | uint32](codes []C, d int) []int {
	counts := make([]int, d)
	for _, c := range codes {
		counts[c]++
	}
	return counts
}

// streamIID is the bounded-memory battery a StreamingSummary holds. It
// retains no series, only the first min(n, firstCap) runs, and it reads the
// summary's population sketch, which the summary updates with each block
// BEFORE pushing the block here. Its three documented approximations:
//
//   - the runs test dichotomizes each pushed block at the then-current
//     sketch median and never re-dichotomizes past blocks, so a median move
//     cannot restart the scan; on the integer cycle grids of real campaigns
//     the median pins within the first rounds and the counts then match the
//     reference bit for bit;
//   - the two-half KS check compares the retained first h = min(n/2,
//     firstCap) runs against the rest of the population read off the
//     sketch: bit-identical to the full battery while n <= 2·firstCap and
//     the sketch is exact, and past that the boundary freezes at firstCap
//     and bucket quantization bounds the value resolution by the sketch
//     step;
//   - Ljung-Box always uses the reconstructed autocorrelations (no rescan
//     fallback).
type streamIID struct {
	lb          ljungBoxSums
	runs        signRuns
	sketch      *QuantileSketch
	firstCap    int
	firstRuns   []float64 // first min(n, firstCap) runs, in run order
	firstSorted []float64 // firstRuns[:h], ascending, grown at report time
}

func (s *streamIID) push(block []float64) {
	s.lb.push(block)
	if room := s.firstCap - len(s.firstRuns); room > 0 {
		s.firstRuns = append(s.firstRuns, block[:min(room, len(block))]...)
	}
	s.runs.scan(block, s.sketch.Quantile(0.5))
}

func (s *streamIID) report() IIDReport {
	return IIDReport{
		Runs:      s.runs.result(),
		LjungBox:  s.lb.report(nil),
		Identical: s.identicalReport(),
	}
}

func (s *streamIID) identicalReport() TestResult {
	n := s.lb.n
	if n < 4 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	s.firstSorted = growSortedPrefix(s.firstSorted, s.firstRuns, min(n/2, s.firstCap))
	h := len(s.firstSorted)
	return ksResult(ksFirstVsSketch(s.sketch, s.firstSorted, n), h, n-h)
}

func (s *streamIID) bytes() int {
	return (len(s.firstRuns)+len(s.firstSorted))*8 + s.lb.bytes() + 256
}

// growSortedPrefix extends prefix, the sorted first len(prefix) values of
// runs, to the first h: the run-ordered chunk crossing the boundary is
// sorted and merged in, so the prefix only ever grows and never re-sorts.
// The result is the sorted multiset of runs[:h] however the growth was
// split, so the streaming battery grows it lazily, at report time.
//
// The prefix is the streaming battery's own and never handed out, so it
// grows in place, its backing array growing as append's does: the values the chunk
// does not precede stay put, the rest move to the top of the grown slice,
// and mergeInto merges them with the chunk from below.
func growSortedPrefix(prefix, runs []float64, h int) []float64 {
	p := len(prefix)
	if h <= p {
		return prefix
	}
	chunk := sortedFlat(runs[p:h])
	xs := slices.Grow(prefix, h-p)[:h]
	q := lead(xs[:p], chunk[0], true)
	rest := xs[h-(p-q):]
	copy(rest, xs[q:p])
	mergeInto(xs[q:], rest, chunk)
	return xs
}

// ljungBoxSums folds a run-ordered series into the running sums the
// Ljung-Box check reconstructs its autocorrelations from. The moments are
// taken over the shifted series y_i = x_i - shift, where shift is the first
// observed value: execution times sit far from zero, so anchoring the
// moments near the data keeps the expanded sums well conditioned.
type ljungBoxSums struct {
	n      int
	shift  float64
	sum    float64             // Σ y_i
	sumSq  float64             // Σ y_i²
	cross  [iidMaxLags]float64 // cross[k-1] = Σ_i y_i · y_{i+k}
	head   []float64           // first ≤ iidMaxLags shifted values
	window []float64           // last ≤ iidMaxLags shifted values, run order
}

// push folds a block in run order. Only the block's first iidMaxLags runs,
// whose lag partners reach back into the window of earlier runs, take the
// run-by-run path; the rest are folded in register-blocked passes over the
// block itself (foldLags), after which the window is the block's last
// iidMaxLags runs. Each lag's products, like sum and sumSq, are added in run
// order either way, so the sums do not depend on how the series was split
// into blocks.
func (l *ljungBoxSums) push(block []float64) {
	if len(block) == 0 {
		return
	}
	if l.n == 0 {
		l.shift = block[0]
	}
	l.n += len(block)
	edge := min(len(block), iidMaxLags)
	for _, x := range block[:edge] {
		l.pushRun(x)
	}
	if len(block) == edge {
		return
	}
	sh := l.shift
	sum, sumSq := l.sum, l.sumSq
	for _, x := range block[edge:] {
		y := x - sh
		sum += y
		sumSq += y * y
	}
	l.sum, l.sumSq = sum, sumSq
	for lag := 1; lag <= iidMaxLags; lag += foldWidth {
		foldLags(block, sh, (*[foldWidth]float64)(l.cross[lag-1:]), lag)
	}
	for k, x := range block[len(block)-iidMaxLags:] {
		l.window[k] = x - sh
	}
}

// pushRun folds one run against the window of the runs before it.
func (l *ljungBoxSums) pushRun(x float64) {
	y := x - l.shift
	w := len(l.window)
	for k := 1; k <= w; k++ {
		l.cross[k-1] += y * l.window[w-k]
	}
	if w == iidMaxLags {
		copy(l.window, l.window[1:])
		l.window[w-1] = y
	} else {
		l.window = append(l.window, y)
	}
	if len(l.head) < iidMaxLags {
		l.head = append(l.head, y)
	}
	l.sum += y
	l.sumSq += y * y
}

// foldWidth is the number of lags one foldLags pass carries: its sums and
// partner values stay in registers. On amd64 passes of five lags ran faster
// than passes of four or ten.
const foldWidth = 5

// foldLags adds the products of lags lag..lag+foldWidth-1 for the runs of
// block[iidMaxLags:] to c, run by run, holding the sums and each run's
// partners in locals: the partners shift down one register per run instead
// of being reloaded from a window.
func foldLags(block []float64, sh float64, c *[foldWidth]float64, lag int) {
	c1, c2, c3, c4, c5 := c[0], c[1], c[2], c[3], c[4]
	p := block[iidMaxLags-lag-4 : iidMaxLags-lag+1]
	p1, p2, p3, p4, p5 := p[4]-sh, p[3]-sh, p[2]-sh, p[1]-sh, p[0]-sh
	for i := iidMaxLags; i < len(block); i++ {
		y := block[i] - sh
		c1 += y * p1
		c2 += y * p2
		c3 += y * p3
		c4 += y * p4
		c5 += y * p5
		p5, p4, p3, p2, p1 = p4, p3, p2, p1, block[i+1-lag]-sh
	}
	c[0], c[1], c[2], c[3], c[4] = c1, c2, c3, c4, c5
}

// report reconstructs the lag-k autocorrelations from the running sums in
// O(lags): with m the running mean of the shifted series,
//
//	Σ (y_i - m)(y_{i+k} - m) = cross_k - m·(2·Σy - head_k - tail_k) + (n-k)·m²
//
// because the i and i+k index ranges each miss k boundary terms (the last
// and first k values respectively). rescan returns the run-ordered series,
// and is nil for a battery that retains none.
func (l *ljungBoxSums) report(rescan func() []float64) TestResult {
	n := l.n
	lags := iidLags(n)
	if lags < 1 || n <= lags+1 {
		return TestResult{Name: "ljung-box", Statistic: 0, PValue: 1}
	}
	nf := float64(n)
	m := l.sum / nf
	den := l.sumSq - nf*m*m
	if den <= 0 {
		// Zero sample variance: every autocorrelation is defined as 0
		// (AutocorrelationsTo), in the one-shot, full-summary and
		// streaming batteries alike.
		return ljungBoxFromAutocorr(make([]float64, lags), n)
	}
	// The expanded sums cancel at ~m²/σ̂² relative digits. The anchor is
	// the first value, so y_0 = 0 and σ̂² >= m²/n: the loss is bounded by
	// ~n·eps and the guard only fires beyond paper-scale samples — where
	// the exact one-shot scan over the retained series is the answer. The
	// streaming battery has no series to re-scan and accepts the
	// reconstruction unconditionally (documented approximation).
	if rescan != nil && m*m > 1e6*den/nf {
		return LjungBox(rescan(), lags)
	}
	rs := make([]float64, lags)
	var headK, tailK float64
	for k := 1; k <= lags; k++ {
		headK += l.head[k-1]
		tailK += l.window[len(l.window)-k]
		num := l.cross[k-1] - m*(2*l.sum-headK-tailK) + float64(n-k)*m*m
		rs[k-1] = num / den
	}
	return ljungBoxFromAutocorr(rs, n)
}

func (l *ljungBoxSums) bytes() int { return (len(l.head) + len(l.window)) * 8 }

// ksFirstVsRest computes the two-sample KS statistic between the first n1
// runs of a sample and the rest of it in one walk over the runs of the
// sample's sorted view, full: first[r] is how many of the first n1 runs
// fall in full's run r, and at every distinct value the rest's count is
// the full count minus the first half's. The result is bit-identical to
// ECDF.KSStatistic on separately sorted halves: the same i/n1 and j/n2
// divisions are compared at a superset of its evaluation points, and the
// extra points (past either half's last value) can only produce smaller
// differences. -0 and +0 tie, so their runs share one point.
func ksFirstVsRest(full Sorted, first []int, n1 int) float64 {
	n2 := full.Len() - n1
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f1, f2 := float64(n1), float64(n2)
	var d float64
	i := 0
	for r, x := range full.vals {
		i += first[r]
		if r+1 < len(full.vals) && full.vals[r+1] == x {
			continue
		}
		j := full.cum[r]
		diff := math.Abs(float64(i)/f1 - float64(j-i)/f2)
		if diff > d {
			d = diff
		}
	}
	return d
}

// ksFirstVsSketch is ksFirstVsRest with the full sorted view replaced by the
// population sketch and the first half held flat, ascending: the walk
// visits each bucket value ascending and derives the rest's count by
// subtracting the first-sample count from the cumulative bucket count. With
// an exact sketch (step 0) the evaluation points and counts — hence the
// statistic — are bit-identical to ksFirstVsRest.
func ksFirstVsSketch(sk *QuantileSketch, first []float64, n int) float64 {
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
		i += lead(first[i:], x, true)
		diff := math.Abs(float64(i)/f1 - float64(int(cum)-i)/f2)
		if diff > d {
			d = diff
		}
	}
	return d
}
