package stats

import "math"

// iidMaxLags is the Ljung-Box lag budget of the i.i.d. battery: the MBPTA
// convention of 20 lags (short samples use n/4, see iidLags).
const iidMaxLags = 20

// IIDState incrementally maintains the MBPTA admissibility battery over a
// growing run-ordered sample. A convergence loop that adds inc runs per
// round pays O(inc·lags) per Push plus O(lags) per report for the Ljung-Box
// check, instead of CheckIID's O(n·lags) full-sample re-scan; the runs test
// continues its scan from where the previous report stopped (re-dichotomizing
// only when the sample median actually moves), and the two-half KS check
// maintains the ascending-sorted first half across the moving half boundary
// so neither half is ever re-sorted.
//
// Reports are bit-identical to CheckIID for the runs and KS checks (same
// integer counts, same median, same evaluation points) and agree with it to
// floating-point reassociation error for Ljung-Box, whose autocorrelations
// are reconstructed from running moment sums instead of centered scans. The
// one-shot battery remains the reference oracle; see the equivalence tests
// and the mbpta.Campaign referenceIID test seam.
//
// A battery built with NewStreamingIID additionally drops the retained
// series, bounding memory by the configured budget; see the streaming notes
// on each check for what that changes.
//
// The zero value is an empty battery ready for use. An IIDState is not safe
// for concurrent use.
//
//pubtac:fastpath iid
type IIDState struct {
	series []float64 // the run-ordered sample, appended on Push (nil in streaming mode)
	n      int       // total runs pushed

	// Streaming mode (NewStreamingIID): no retained series. The runs test
	// dichotomizes each pushed block at the then-current sketch median
	// instead of re-dichotomizing on median moves; the two-half KS check
	// compares the retained first min(n/2, firstCap) runs against the rest
	// through the sketch; Ljung-Box always uses the reconstructed
	// autocorrelations (no rescan fallback).
	stream    bool
	sketch    *QuantileSketch // full-population sketch, owned by the enclosing summary
	firstCap  int             // retention cap for the first-runs prefix
	firstRuns []float64       // first min(n, firstCap) runs, in run order

	// Ljung-Box accumulators over the shifted series y_i = x_i - shift
	// (shift is the first observed value; execution times sit far from
	// zero, so anchoring the moments near the data keeps the expanded sums
	// well conditioned).
	shift  float64
	sum    float64             // Σ y_i
	sumSq  float64             // Σ y_i²
	cross  [iidMaxLags]float64 // cross[k-1] = Σ_i y_i · y_{i+k}
	head   []float64           // first ≤ iidMaxLags shifted values
	window []float64           // last ≤ iidMaxLags shifted values, run order

	// Runs-test scan state w.r.t. the dichotomization threshold runsMed:
	// above/below counts and the sign-transition tally of the prefix
	// scanned so far. Valid while the sample median stays at runsMed; a
	// median move restarts the dichotomization (full mode only — the
	// streaming battery has no series to re-scan).
	runsMed  float64
	hasMed   bool
	scanned  int
	n1, n2   int
	runs     int
	lastSign int8

	// firstSorted is the ascending-sorted view of the first sample of the
	// two-half KS check: series[:half] in full mode, firstRuns[:half] in
	// streaming mode. The half boundary advances on Push (full) or at
	// report time (streaming); the run-ordered chunk crossing it is sorted
	// and merged in, so the first half only ever grows and never re-sorts.
	firstSorted []float64
	half        int
}

// NewStreamingIID returns a bounded-memory battery: it retains no series,
// only the first min(n, firstCap) runs for the KS check. sketch must be the
// full-population sketch of the same pushed sample and must be updated with
// each block BEFORE the block is pushed here (the runs test dichotomizes at
// the sketch median covering the block).
func NewStreamingIID(sketch *QuantileSketch, firstCap int) *IIDState {
	if firstCap < 4 {
		firstCap = 4
	}
	return &IIDState{stream: true, sketch: sketch, firstCap: firstCap}
}

// N returns the number of runs pushed so far.
func (s *IIDState) N() int { return s.n }

// Push appends a block of runs, in run order, to the battery. Cost:
// O(len(block)·lags) for the autocorrelation cross-products plus the merge
// maintaining the sorted first half.
func (s *IIDState) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	if s.n == 0 {
		s.shift = block[0]
	}
	for _, x := range block {
		y := x - s.shift
		w := len(s.window)
		for k := 1; k <= w; k++ {
			s.cross[k-1] += y * s.window[w-k]
		}
		if w == iidMaxLags {
			copy(s.window, s.window[1:])
			s.window[w-1] = y
		} else {
			s.window = append(s.window, y)
		}
		if len(s.head) < iidMaxLags {
			s.head = append(s.head, y)
		}
		s.sum += y
		s.sumSq += y * y
	}
	s.n += len(block)
	if s.stream {
		s.pushStream(block)
		return
	}
	s.series = append(s.series, block...)
	if h := s.n / 2; h > s.half {
		s.firstSorted = MergeSorted(s.firstSorted, SortedCopy(s.series[s.half:h]))
		s.half = h
	}
}

// pushStream is the streaming-mode tail of Push: first-runs retention and
// the per-block runs-test scan. The block is dichotomized at the current
// overall sketch median (the enclosing summary pushes the sketch first, so
// it covers this block). Past blocks are never re-dichotomized — unlike the
// retained-series battery, a median move cannot restart the scan; on the
// integer cycle grids of real campaigns the median pins within the first
// rounds and the counts then match the reference bit for bit.
func (s *IIDState) pushStream(block []float64) {
	if room := s.firstCap - len(s.firstRuns); room > 0 {
		take := room
		if take > len(block) {
			take = len(block)
		}
		s.firstRuns = append(s.firstRuns, block[:take]...)
	}
	med := s.sketch.Quantile(0.5)
	s.runsMed, s.hasMed = med, true
	for _, x := range block {
		var sign int8
		switch {
		case x > med:
			sign = 1
			s.n1++
		case x < med:
			sign = -1
			s.n2++
		default:
			continue
		}
		if s.lastSign == 0 {
			s.runs = 1
		} else if sign != s.lastSign {
			s.runs++
		}
		s.lastSign = sign
	}
}

// ReportSorted computes the battery report for the sample pushed so far,
// given the caller's ascending-sorted view of that same sample (the
// convergence loop maintains one incrementally for the tail fit). The
// sorted view supplies the runs-test median in O(1); nothing re-sorts or
// re-scans the run-ordered prefix. ReportSorted mutates the runs-test scan
// state and is therefore not idempotent w.r.t. cost, only w.r.t. results.
// Streaming batteries have no full sorted view; use Report.
func (s *IIDState) ReportSorted(sorted []float64) IIDReport {
	if s.stream {
		panic("stats: IIDState.ReportSorted: streaming battery has no full sorted view")
	}
	if len(sorted) != s.n {
		panic("stats: IIDState.ReportSorted: sorted view does not match the pushed sample")
	}
	return IIDReport{
		Runs:      s.runsReport(sorted),
		LjungBox:  s.ljungBoxReport(),
		Identical: s.identicalReport(sorted),
	}
}

// Report is ReportSorted for callers without a maintained sorted view. In
// full mode it assembles one by merging the sorted first half with a sort of
// the second; in streaming mode it assembles the bounded-memory variants of
// the three checks.
func (s *IIDState) Report() IIDReport {
	if s.stream {
		return IIDReport{
			Runs:      runsResult(s.n1, s.n2, s.runs),
			LjungBox:  s.ljungBoxReport(),
			Identical: s.identicalStreamReport(),
		}
	}
	return s.ReportSorted(MergeSorted(s.firstSorted, SortedCopy(s.series[s.half:])))
}

// runsReport continues the Wald-Wolfowitz scan over the unscanned suffix.
// When the sample median moved since the last report the whole series is
// re-dichotomized; integer-valued execution times pin the median quickly,
// so steady-state rounds only scan their increment.
func (s *IIDState) runsReport(sorted []float64) TestResult {
	if s.n == 0 {
		return TestResult{Name: "runs", Statistic: 0, PValue: 1}
	}
	med := quantileSorted(sorted, 0.5)
	if !s.hasMed || med != s.runsMed {
		s.runsMed, s.hasMed = med, true
		s.scanned, s.n1, s.n2, s.runs, s.lastSign = 0, 0, 0, 0, 0
	}
	for _, x := range s.series[s.scanned:] {
		var sign int8
		switch {
		case x > med:
			sign = 1
			s.n1++
		case x < med:
			sign = -1
			s.n2++
		default:
			continue
		}
		if s.lastSign == 0 {
			s.runs = 1
		} else if sign != s.lastSign {
			s.runs++
		}
		s.lastSign = sign
	}
	s.scanned = s.n
	return runsResult(s.n1, s.n2, s.runs)
}

// ljungBoxReport reconstructs the lag-k autocorrelations from the running
// sums in O(lags): with m the running mean of the shifted series,
//
//	Σ (y_i - m)(y_{i+k} - m) = cross_k - m·(2·Σy - head_k - tail_k) + (n-k)·m²
//
// because the i and i+k index ranges each miss k boundary terms (the last
// and first k values respectively).
func (s *IIDState) ljungBoxReport() TestResult {
	n := s.n
	lags := iidLags(n)
	if lags < 1 || n <= lags+1 {
		return TestResult{Name: "ljung-box", Statistic: 0, PValue: 1}
	}
	nf := float64(n)
	m := s.sum / nf
	den := s.sumSq - nf*m*m
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
	if !s.stream && m*m > 1e6*den/nf {
		return LjungBox(s.series, lags)
	}
	rs := make([]float64, lags)
	var headK, tailK float64
	for k := 1; k <= lags; k++ {
		headK += s.head[k-1]
		tailK += s.window[len(s.window)-k]
		num := s.cross[k-1] - m*(2*s.sum-headK-tailK) + float64(n-k)*m*m
		rs[k-1] = num / den
	}
	return ljungBoxFromAutocorr(rs, n)
}

// identicalReport is the two-half KS check against the maintained first
// half; the second half's ECDF is derived from the full sorted view during
// the walk, so it never needs its own sorted copy.
func (s *IIDState) identicalReport(sorted []float64) TestResult {
	n := s.n
	if n < 4 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	d := ksFirstVsRest(sorted, s.firstSorted)
	n1, n2 := float64(s.half), float64(n-s.half)
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Name: "ks-2sample", Statistic: d, PValue: KolmogorovSurvival(lambda)}
}

// identicalStreamReport is the streaming two-half KS check: the first sample
// is the retained first h = min(n/2, firstCap) runs, the second is the rest
// of the population read off the sketch by count subtraction. While n <=
// 2·firstCap and the sketch is exact the check is bit-identical to the
// retained-series one; past that the boundary freezes at firstCap (first
// firstCap runs vs. everything after) and bucket quantization bounds the
// value resolution by the sketch step.
func (s *IIDState) identicalStreamReport() TestResult {
	n := s.n
	if n < 4 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	h := n / 2
	if h > s.firstCap {
		h = s.firstCap
	}
	if h > s.half {
		s.firstSorted = MergeSorted(s.firstSorted, SortedCopy(s.firstRuns[s.half:h]))
		s.half = h
	}
	d := ksFirstVsSketch(s.sketch, s.firstSorted, n)
	n1, n2 := float64(s.half), float64(n-s.half)
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Name: "ks-2sample", Statistic: d, PValue: KolmogorovSurvival(lambda)}
}

// ksFirstVsRest computes the two-sample KS statistic between the first-half
// sample (first, ascending) and the rest of the full sample (full ∖ first)
// in one walk over the full sorted view: at every distinct value x the
// rest's count is the full count minus the first-half count. The result is
// bit-identical to ECDF.KSStatistic on separately sorted halves — the same
// i/n1 and j/n2 divisions are compared at a superset of its evaluation
// points, and the extra points (past either half's last value) can only
// produce smaller differences.
func ksFirstVsRest(full, first []float64) float64 {
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
		for i < n1 && first[i] <= x {
			i++
		}
		diff := math.Abs(float64(i)/f1 - float64(int(cum)-i)/f2)
		if diff > d {
			d = diff
		}
	}
	return d
}

// Bytes returns the battery's retained memory in bytes (accounting for the
// streaming memory model; transient merge buffers excluded).
func (s *IIDState) Bytes() int {
	return (len(s.series)+len(s.firstRuns)+len(s.firstSorted)+len(s.head)+len(s.window))*8 + 256
}
