package stats

import "sort"

// SampleView is the read-only, point-in-time face of a sample summary: the
// quantities the estimation pipeline (tail fit, CV test, composite curve)
// reads. Order statistics follow the full-sample conventions: FromTop(1) is
// the maximum, FromTop(k) the k-th largest, CountLE(x)/N() the empirical
// CDF. The full sample's view is its *ECDF.
type SampleView interface {
	// N returns the number of observations summarized.
	N() int
	// Min returns the smallest observation (exact in every mode).
	Min() float64
	// Max returns the largest observation (exact in every mode).
	Max() float64
	// TailSorted returns the sorted top portion of the sample available
	// for exact tail work: the whole sample on a full view, the top-K
	// reservoir on a streaming view.
	TailSorted() Sorted
	// FromTop returns the k-th largest observation (1 <= k <= N): exact
	// while k is within TailSorted, sketch-resolved below it on streaming
	// views.
	FromTop(k int) float64
	// CountLE returns the number of observations <= x. Exact on full
	// views and on streaming views while the sketch is exact;
	// quantized-exact (counts of the bucket-quantized sample) after the
	// sketch has coarsened.
	CountLE(x float64) int
}

// SampleSummary owns everything the estimation pipeline needs from a
// measurement campaign's sample: the run count, point-in-time views for the
// tail fit and composite curve, and the admissibility battery. Blocks are
// pushed in run order.
//
// Two implementations exist: FullSummary retains the sample (the reference
// arm) and StreamingSummary holds memory independent of the run count (the
// fast arm). See their docs for the exactness contract between them.
// FullSummary's views and reports, and the streaming arm's reservoir and
// sketch, depend only on the concatenated sample, never on the chunking. The
// streaming battery does not: it dichotomizes each block at the then-current
// sketch median, so its report depends on the block boundaries (which is why
// mbpta pushes streaming campaigns in fixed-size chunks).
type SampleSummary interface {
	// N returns the number of observations pushed.
	N() int
	// Push appends a block of runs, in run order.
	Push(block []float64)
	// IID reports the admissibility battery over everything pushed. On a
	// full summary each call is a pass over the whole sample, O(n·lags);
	// on a streaming summary its cost depends on the budget, not on n.
	// Callers report once per estimate they hand out, not once per push.
	IID() IIDReport
	// View returns an immutable point-in-time snapshot for curve
	// construction: later Pushes into the summary do not change it.
	View() SampleView
	// PeakBytes returns the high-water mark of the retained memory,
	// sampled after every Push and every IID.
	PeakBytes() int
}

// FullSummary is the retained-sample reference arm of the estimation
// pipeline: the run-ordered sample plus an incrementally merged sorted
// view, and nothing else. Its battery is a function of those two, and its
// View, an ECDF, answers every query exactly. Memory grows linearly with
// the run count, 16 B per run — the scaling wall the streaming arm removes.
// A full summary is only ever built by pushing runs into NewFullSummary, so
// its fields are this file's alone: no wire format or other code reads
// them.
//
//pubtac:reference summary
type FullSummary struct {
	sample  []float64
	sorted  Sorted
	oneShot bool // IID runs the one-shot CheckIID reference
}

// NewFullSummary returns an empty full summary. With fastIID its IID is the
// one-pass battery over the summary's sample and sorted view (fullIID);
// without it IID runs the one-shot CheckIID reference over the sample
// (mbpta.NewEstimate and DecodeSummary).
func NewFullSummary(fastIID bool) *FullSummary {
	return &FullSummary{oneShot: !fastIID}
}

// Push appends a block of runs: O(n + |block|·log|block|).
func (s *FullSummary) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	s.sample = append(s.sample, block...)
	s.sorted = MergeSorted(s.sorted, SortedCopy(block))
}

// Sample returns the retained run-ordered sample (read-only).
func (s *FullSummary) Sample() []float64 { return s.sample }

// IID reports the admissibility battery, one-pass or one-shot reference. It
// retains nothing.
func (s *FullSummary) IID() IIDReport {
	if s.oneShot {
		return CheckIID(s.sample)
	}
	return fullIID(s.sample, s.sorted)
}

// View snapshots the current sorted view as an ECDF. Pushes replace (never
// mutate) the sorted view, so the snapshot stays valid as the summary
// grows.
func (s *FullSummary) View() SampleView { return &ECDF{s.sorted} }

// PeakBytes returns the high-water retained memory: the sample and the
// sorted view, 16 B per run. A full summary only grows, so that is its
// current size.
func (s *FullSummary) PeakBytes() int { return (len(s.sample) + s.sorted.Len()) * 8 }

// N returns the number of runs pushed.
func (s *FullSummary) N() int { return len(s.sample) }

// MinStreamBudget floors the streaming budget: below this the reservoir
// cannot cover even the minimum tail-fit window plus headroom.
const MinStreamBudget = 64

// StreamingSummary is the bounded-memory fast arm: an exact top-K tail
// reservoir (K = budget), an exact min/max, a quantile sketch over the whole
// population, and the streaming admissibility battery. Retained
// memory is O(budget), independent of the run count.
//
// Exactness contract of its View vs. FullSummary's (the reference arm; see
// the equivalence tests):
//
//   - TailSorted/FromTop within the reservoir, Min, Max, N: bit-identical
//     always. The tail fit and CV test read only these, so estimates are
//     bit-identical whenever the reservoir covers the auto-fit search
//     window (n/5 <= budget-1; beyond it the window is clamped to the
//     reservoir).
//   - CountLE and FromTop below the reservoir: bit-identical while the
//     population has at most budget distinct values (integer cycle grids in practice); otherwise
//     value resolution is bounded by the sketch step < 2·span/(budget-1).
//   - IID: bit-identical while n <= 2·budget, the sketch is exact and the
//     running median never moves; past that the documented streaming
//     approximations apply (per-block dichotomization, frozen KS boundary,
//     reconstructed Ljung-Box).
//
//pubtac:fastpath summary
type StreamingSummary struct {
	budget     int
	n          int
	min, max   float64
	tailSorted Sorted // top-K reservoir, exact
	sketch     *QuantileSketch
	iid        streamIID
	peak       int
}

// NewStreamingSummary returns an empty streaming summary with the given
// memory budget (floored at MinStreamBudget): the budget is the reservoir
// size K, the sketch bucket budget and the battery's first-runs retention
// cap, so retained memory is ~5·budget float64s.
func NewStreamingSummary(budget int) *StreamingSummary {
	if budget < MinStreamBudget {
		budget = MinStreamBudget
	}
	sketch := NewQuantileSketch(budget)
	return &StreamingSummary{
		budget: budget,
		sketch: sketch,
		iid:    streamIID{sketch: sketch, firstCap: budget},
	}
}

// Push appends a block of runs in run order. The sketch is updated before
// the battery so the battery's per-block median covers the block. Cost:
// O(budget + |block|·(log|block| + lags)), independent of n.
func (s *StreamingSummary) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = block[0], block[0]
	}
	for _, v := range block {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n += len(block)
	s.sketch.Push(block)
	s.pushTail(block)
	s.iid.push(block)
	s.peak = max(s.peak, s.Bytes())
}

// IID reports the streaming admissibility battery. The report grows the
// battery's sorted KS first half, so it is a peak-memory checkpoint too.
func (s *StreamingSummary) IID() IIDReport {
	rep := s.iid.report()
	s.peak = max(s.peak, s.Bytes())
	return rep
}

// View snapshots the reservoir and sketch; later pushes do not change it.
func (s *StreamingSummary) View() SampleView {
	return &streamView{
		n:          s.n,
		min:        s.min,
		max:        s.max,
		tailSorted: MergeSorted(s.tailSorted, Sorted{}), // a copy: pushes merge in place
		sketch:     s.sketch.Clone(),
	}
}

// PeakBytes returns the high-water retained memory across pushes and IID
// reports.
func (s *StreamingSummary) PeakBytes() int { return s.peak }

// Budget returns the memory budget K the summary runs with: its reservoir
// size, floored at MinStreamBudget.
func (s *StreamingSummary) Budget() int { return s.budget }

// N returns the number of runs pushed.
func (s *StreamingSummary) N() int { return s.n }

// Bytes counts the reservoir, sketch and battery state.
func (s *StreamingSummary) Bytes() int {
	return s.tailSorted.Len()*8 + s.sketch.Bytes() + s.iid.bytes() + 64
}

// streamView is a bounded-memory point-in-time snapshot.
type streamView struct {
	n          int
	min, max   float64
	tailSorted Sorted
	sketch     *QuantileSketch
}

func (v *streamView) N() int                { return v.n }
func (v *streamView) Min() float64          { return v.min }
func (v *streamView) Max() float64          { return v.max }
func (v *streamView) TailSorted() Sorted    { return v.tailSorted }
func (v *streamView) CountLE(x float64) int { return v.sketch.CountLE(x) }

// FromTop resolves the k-th largest observation: exact off the reservoir
// while k is within it (the reservoir's k-th largest is the sample's because
// the reservoir holds the K-largest multiset), by sketch rank below it.
func (v *streamView) FromTop(k int) float64 {
	if k < 1 || k > v.n {
		panic(ErrEmptySample)
	}
	if k <= v.tailSorted.Len() {
		return v.tailSorted.FromTop(k)
	}
	return v.sketch.orderStat(v.n - k)
}

// pushTail folds a block into the top-K reservoir, which always holds the
// multiset of the K largest runs pushed so far, so it does not depend on the
// chunking. Until the reservoir is full a push merges into a fresh slice;
// from then on it merges in place, and only the block's runs above the
// reservoir's minimum are copied and sorted (a run equal to the minimum
// would replace an equal value).
func (s *StreamingSummary) pushTail(block []float64) {
	if s.tailSorted.Len() < s.budget {
		merged := MergeSorted(s.tailSorted, SortedCopy(block))
		if over := merged.Len() - s.budget; over > 0 {
			merged = Sorted{append([]float64(nil), merged.xs[over:]...)}
		}
		s.tailSorted = merged
		return
	}
	in := make([]float64, 0, len(block))
	for _, v := range block {
		if v > s.tailSorted.Min() {
			in = append(in, v)
		}
	}
	sort.Float64s(in)
	mergeTopKInPlace(s.tailSorted.xs, in)
}

// mergeTopKInPlace overwrites tailSorted with the len(tailSorted) largest
// values of tailSorted and sortedIn, both ascending, in the order
// MergeSorted(tailSorted, sortedIn) gives them (on ties, sortedIn's value
// sorts above tailSorted's).
func mergeTopKInPlace(tailSorted, sortedIn []float64) {
	// The t values of sortedIn that enter evict tailSorted[:t]: t is the
	// largest count whose smallest entrant sorts above (or ties with) the
	// largest evictee, found by bisection.
	k, m := len(tailSorted), len(sortedIn)
	t := sort.Search(min(k, m), func(i int) bool { return !(sortedIn[m-1-i] >= tailSorted[i]) })
	// Merge tailSorted[t:] and the entrants upward into tailSorted: the
	// room below tailSorted[t:] holds the t entrants, and the values above
	// the largest entrant stay in place.
	mergeInto(tailSorted, tailSorted[t:], sortedIn[m-t:])
}
