package stats

import (
	"math"
	"slices"
)

// iidMaxLags is the Ljung-Box lag budget of the i.i.d. battery: the MBPTA
// convention of 20 lags (short samples use n/4, see iidLags).
const iidMaxLags = 20

// IIDState incrementally maintains the MBPTA admissibility battery over a
// growing run-ordered sample that its owner retains (FullSummary): Push only
// folds each block into the Ljung-Box moment sums, and ReportSorted reads the
// owner's sample and sorted view. A convergence loop that adds inc runs per
// round pays O(inc·lags) per Push plus O(lags) per report for the Ljung-Box
// check, instead of CheckIID's O(n·lags) full-sample re-scan; the runs test
// continues its scan from where the previous report stopped
// (re-dichotomizing only when the sample median actually moves), and the
// two-half KS check grows its sorted first half across the moving half
// boundary so neither half is ever re-sorted.
//
// Reports are bit-identical to CheckIID for the runs and KS checks (same
// integer counts, same median, same evaluation points) and agree with it to
// floating-point reassociation error for Ljung-Box, whose autocorrelations
// are reconstructed from running moment sums instead of centered scans. The
// one-shot battery remains the reference oracle; see the equivalence tests
// and the mbpta.Campaign referenceIID test seam.
//
// The zero value is an empty battery ready for use. An IIDState is not safe
// for concurrent use.
//
//pubtac:fastpath iid
type IIDState struct {
	lb ljungBoxSums

	// Runs-test scan state: the tally of sample[:scanned] dichotomized at
	// runsMed. Valid while the sample median stays at runsMed; a median
	// move restarts the scan.
	runsMed float64
	hasMed  bool
	scanned int
	runs    signRuns

	// firstSorted is the sorted first half of the two-half KS check, grown
	// at report time (see growSortedPrefix).
	firstSorted Sorted
}

// N returns the number of runs pushed so far.
func (s *IIDState) N() int { return s.lb.n }

// Push folds a block of runs, in run order, into the Ljung-Box sums:
// O(len(block)·lags). The owner retains the runs themselves.
func (s *IIDState) Push(block []float64) { s.lb.push(block) }

// ReportSorted computes the battery report for the runs pushed so far, given
// the owner's run-ordered sample of those same runs and its sorted view.
// The sorted view supplies the runs-test median in O(1); nothing re-sorts or
// re-scans the run-ordered prefix. ReportSorted mutates the runs-test scan
// state and the KS first half and is therefore not idempotent w.r.t. cost,
// only w.r.t. results.
func (s *IIDState) ReportSorted(sample []float64, sorted Sorted) IIDReport {
	if len(sample) != s.lb.n || sorted.Len() != s.lb.n {
		panic("stats: IIDState.ReportSorted: sample or sorted view does not match the pushed runs")
	}
	return IIDReport{
		Runs:      s.runsReport(sample, sorted),
		LjungBox:  s.lb.report(sample),
		Identical: s.identicalReport(sample, sorted),
	}
}

// runsReport continues the Wald-Wolfowitz scan over the unscanned suffix.
// When the sample median moved since the last report the whole sample is
// re-dichotomized; integer-valued execution times pin the median quickly,
// so steady-state rounds only scan their increment.
func (s *IIDState) runsReport(sample []float64, sorted Sorted) TestResult {
	if len(sample) == 0 {
		return TestResult{Name: "runs", Statistic: 0, PValue: 1}
	}
	med := sorted.Quantile(0.5)
	if !s.hasMed || med != s.runsMed {
		s.runsMed, s.hasMed = med, true
		s.scanned, s.runs = 0, signRuns{}
	}
	s.runs.scan(sample[s.scanned:], med)
	s.scanned = len(sample)
	return s.runs.result()
}

// identicalReport is the two-half KS check against the maintained first
// half; the second half's ECDF is derived from the full sorted view during
// the walk, so it never needs its own sorted copy.
func (s *IIDState) identicalReport(sample []float64, sorted Sorted) TestResult {
	n := len(sample)
	if n < 4 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	s.firstSorted = growSortedPrefix(s.firstSorted, sample, n/2)
	h := s.firstSorted.Len()
	return ksResult(ksFirstVsRest(sorted, s.firstSorted), h, n-h)
}

// Bytes returns the battery's retained memory in bytes: the KS first half's
// values and the Ljung-Box windows (the spare capacity the first half grows
// into and transient merge buffers excluded; the sample is the owner's).
func (s *IIDState) Bytes() int { return s.firstSorted.Len()*8 + s.lb.bytes() + 256 }

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
	firstSorted Sorted    // firstRuns[:h], grown at report time
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
	h := s.firstSorted.Len()
	return ksResult(ksFirstVsSketch(s.sketch, s.firstSorted, n), h, n-h)
}

func (s *streamIID) bytes() int {
	return (len(s.firstRuns)+s.firstSorted.Len())*8 + s.lb.bytes() + 256
}

// growSortedPrefix extends prefix, the sorted first prefix.Len() values of
// runs, to the first h: the run-ordered chunk crossing the boundary is
// sorted and merged in, so the prefix only ever grows and never re-sorts.
// The result is the sorted multiset of runs[:h] however the growth was
// split, so a battery may grow it lazily, at report time.
//
// The prefix is its battery's own and never handed out, so it grows in
// place, its backing array growing as append's does: the values the chunk
// does not precede stay put, the rest move to the top of the grown slice,
// and mergeInto merges them with the chunk from below.
func growSortedPrefix(prefix Sorted, runs []float64, h int) Sorted {
	p := prefix.Len()
	if h <= p {
		return prefix
	}
	chunk := SortedCopy(runs[p:h]).xs
	xs := slices.Grow(prefix.xs, h-p)[:h]
	q := lead(xs[:p], chunk[0], true)
	rest := xs[h-(p-q):]
	copy(rest, xs[q:p])
	mergeInto(xs[q:], rest, chunk)
	return Sorted{xs}
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
// and first k values respectively). rescan is the retained run-ordered
// series, or nil for a battery that retains none.
func (l *ljungBoxSums) report(rescan []float64) TestResult {
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
		// (AutocorrelationsTo), in one-shot, incremental and streaming
		// modes alike.
		return ljungBoxFromAutocorr(make([]float64, lags), n)
	}
	// The expanded sums cancel at ~m²/σ̂² relative digits. The anchor is
	// the first value, so y_0 = 0 and σ̂² >= m²/n: the loss is bounded by
	// ~n·eps and the guard only fires beyond paper-scale samples — where
	// the exact one-shot scan over the retained series is the answer. The
	// streaming battery has no series to re-scan and accepts the
	// reconstruction unconditionally (documented approximation).
	if rescan != nil && m*m > 1e6*den/nf {
		return LjungBox(rescan, lags)
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

// ksFirstVsRest computes the two-sample KS statistic between the first-half
// sample (first) and the rest of the full sample (full ∖ first) in one walk
// over the full sorted view: at every distinct value x the rest's count is
// the full count minus the first-half count. The result is bit-identical to
// ECDF.KSStatistic on separately sorted halves — the same i/n1 and j/n2
// divisions are compared at a superset of its evaluation points, and the
// extra points (past either half's last value) can only produce smaller
// differences.
func ksFirstVsRest(fullView, firstView Sorted) float64 {
	full, first := fullView.xs, firstView.xs
	n, n1 := len(full), len(first)
	n2 := n - n1
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f1, f2 := float64(n1), float64(n2)
	var d float64
	i, j := 0, 0
	for j < n {
		// Each distinct value is visited once: lead jumps over its ties in
		// both views.
		x := full[j]
		j += 1 + lead(full[j+1:], x, true)
		i += lead(first[i:], x, true)
		diff := math.Abs(float64(i)/f1 - float64(j-i)/f2)
		if diff > d {
			d = diff
		}
	}
	return d
}

// ksFirstVsSketch is ksFirstVsRest with the full sorted view replaced by the
// population sketch: the walk visits each bucket value ascending and derives
// the rest's count by subtracting the first-sample count from the cumulative
// bucket count. With an exact sketch (step 0) the evaluation points and
// counts — hence the statistic — are bit-identical to ksFirstVsRest.
func ksFirstVsSketch(sk *QuantileSketch, firstView Sorted, n int) float64 {
	first := firstView.xs
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
