package stats

import (
	"fmt"
	"sort"
)

// SampleView is the read-only, point-in-time face of a sample summary: the
// quantities the estimation pipeline (tail fit, CV test, composite curve)
// reads. Order statistics follow the full-sample conventions: FromTop(1) is
// the maximum, FromTop(k) the k-th largest, CountLE(x)/N() the empirical
// CDF.
type SampleView interface {
	// N returns the number of observations summarized.
	N() int
	// Min returns the smallest observation (exact in every mode).
	Min() float64
	// Max returns the largest observation (exact in every mode).
	Max() float64
	// TailSorted returns the ascending-sorted top portion of the sample
	// available for exact tail work: the whole sample on a full view, the
	// top-K reservoir on a streaming view. Read-only; do not modify.
	TailSorted() []float64
	// FromTop returns the k-th largest observation (1 <= k <= N): exact
	// while k is within TailSorted, sketch-resolved below it on streaming
	// views.
	FromTop(k int) float64
	// CountLE returns the number of observations <= x. Exact on full
	// views and on streaming views while the sketch is exact;
	// quantized-exact (counts of the bucket-quantized sample) after the
	// sketch has coarsened.
	CountLE(x float64) int
	// Quantile returns the type-7 interpolated q-th quantile, with value
	// resolution bounded by the sketch step on streaming views.
	Quantile(q float64) float64
	// Bytes returns the retained memory behind the view, in bytes.
	Bytes() int
}

// SampleSummary owns everything the estimation pipeline needs from a
// measurement campaign's sample: the sorted-view order statistics the tail
// fit and composite curve read, the median the admissibility battery
// dichotomizes at, and the battery itself. Blocks are pushed in run order;
// a summary's state depends only on the concatenated sample, never on the
// chunking (the index-addressed determinism discipline of the collection
// layer carries through the summary).
//
// Two implementations exist: FullSummary retains the sample (the reference
// arm) and StreamingSummary holds memory independent of the run count (the
// fast arm). See their docs for the exactness contract between them.
type SampleSummary interface {
	SampleView
	// Push appends a block of runs, in run order.
	Push(block []float64)
	// Merge folds another summary of the SAME concrete type, representing
	// the runs that FOLLOW this summary's runs, into the receiver.
	Merge(other SampleSummary) error
	// IID reports the admissibility battery over everything pushed.
	IID() IIDReport
	// View returns an immutable point-in-time snapshot for curve
	// construction: later Pushes into the summary do not change it.
	View() SampleView
	// PeakBytes returns the high-water retained memory across Pushes.
	PeakBytes() int
}

// FullSummary is the retained-sample reference arm of the estimation
// pipeline: the run-ordered sample plus an incrementally merged
// ascending-sorted view, exactly the state the convergence loop historically
// threaded by hand. Every SampleView query is exact. Memory grows linearly
// with the run count — the scaling wall the streaming arm removes.
//
//pubtac:reference summary
type FullSummary struct {
	sample []float64
	sorted []float64
	iid    *IIDState // incremental battery; nil = one-shot reference battery
	peak   int
}

// NewFullSummary returns an empty full summary. With incrementalIID the
// battery is maintained by an IIDState across pushes (the fast battery);
// without it every IID() call re-runs the one-shot CheckIIDSorted reference
// battery over the retained sample (shard summaries and the mbpta
// referenceIID test seam).
func NewFullSummary(incrementalIID bool) *FullSummary {
	s := &FullSummary{}
	if incrementalIID {
		s.iid = new(IIDState)
	}
	return s
}

// AdoptFullSummary wraps an existing run-ordered sample, its
// ascending-sorted view and (optionally) the battery fed exactly that
// sample, without copying. The slices are adopted: the caller must not
// modify them afterwards.
func AdoptFullSummary(sample, sorted []float64, iid *IIDState) *FullSummary {
	s := &FullSummary{sample: sample, sorted: sorted, iid: iid}
	s.peak = s.Bytes()
	return s
}

// Push appends a block of runs: O(n + |block|·(log|block| + lags)).
func (s *FullSummary) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	s.sample = append(s.sample, block...)
	if s.iid != nil {
		s.iid.Push(block)
	}
	s.sorted = MergeSorted(s.sorted, SortedCopy(block))
	if b := s.Bytes(); b > s.peak {
		s.peak = b
	}
}

// Merge appends another full summary's sample (run order preserved: other's
// runs follow this summary's). The battery result is identical to a
// single-stream battery over the concatenation.
func (s *FullSummary) Merge(other SampleSummary) error {
	o, ok := other.(*FullSummary)
	if !ok {
		return fmt.Errorf("stats: cannot merge %T into *FullSummary", other)
	}
	s.sample = append(s.sample, o.sample...)
	if s.iid != nil {
		s.iid.Push(o.sample)
	}
	s.sorted = MergeSorted(s.sorted, o.sorted)
	if b := s.Bytes(); b > s.peak {
		s.peak = b
	}
	return nil
}

// Sample returns the retained run-ordered sample (read-only).
func (s *FullSummary) Sample() []float64 { return s.sample }

// Sorted returns the retained ascending-sorted view (read-only).
func (s *FullSummary) Sorted() []float64 { return s.sorted }

// IID reports the admissibility battery: incremental when maintained,
// one-shot reference otherwise.
func (s *FullSummary) IID() IIDReport {
	if s.iid != nil {
		return s.iid.ReportSorted(s.sorted)
	}
	return CheckIIDSorted(s.sample, s.sorted)
}

// View snapshots the current sorted view. Pushes replace (never mutate) the
// sorted slice, so the snapshot stays valid as the summary grows.
func (s *FullSummary) View() SampleView { return fullView{sorted: s.sorted} }

// PeakBytes returns the high-water retained memory across pushes.
func (s *FullSummary) PeakBytes() int { return s.peak }

func (s *FullSummary) N() int                { return len(s.sample) }
func (s *FullSummary) Min() float64          { return fullView{sorted: s.sorted}.Min() }
func (s *FullSummary) Max() float64          { return fullView{sorted: s.sorted}.Max() }
func (s *FullSummary) TailSorted() []float64 { return s.sorted }
func (s *FullSummary) FromTop(k int) float64 { return fullView{sorted: s.sorted}.FromTop(k) }
func (s *FullSummary) CountLE(x float64) int { return fullView{sorted: s.sorted}.CountLE(x) }
func (s *FullSummary) Quantile(q float64) float64 {
	return fullView{sorted: s.sorted}.Quantile(q)
}

// Bytes counts the retained sample, sorted view and battery state.
func (s *FullSummary) Bytes() int {
	b := (len(s.sample) + len(s.sorted)) * 8
	if s.iid != nil {
		b += s.iid.Bytes()
	}
	return b
}

// fullView is a snapshot over an immutable ascending-sorted sample.
type fullView struct {
	sorted []float64
}

func (v fullView) N() int                { return len(v.sorted) }
func (v fullView) Min() float64          { return v.sorted[0] }
func (v fullView) Max() float64          { return v.sorted[len(v.sorted)-1] }
func (v fullView) TailSorted() []float64 { return v.sorted }

func (v fullView) FromTop(k int) float64 { return v.sorted[len(v.sorted)-k] }

// CountLE mirrors ECDF.P's count (binary search plus the tie walk) so
// composite curves built on a view are bit-identical to ECDF-backed ones.
func (v fullView) CountLE(x float64) int {
	n := sort.SearchFloat64s(v.sorted, x)
	for n < len(v.sorted) && v.sorted[n] == x {
		n++
	}
	return n
}

func (v fullView) Quantile(q float64) float64 { return QuantileSorted(v.sorted, q) }
func (v fullView) Bytes() int                 { return len(v.sorted) * 8 }

// MinStreamBudget floors the streaming budget: below this the reservoir
// cannot cover even the minimum tail-fit window plus headroom.
const MinStreamBudget = 64

// StreamingSummary is the bounded-memory fast arm: an exact top-K tail
// reservoir (K = budget), an exact min/max, a mergeable quantile sketch over
// the whole population, and the streaming admissibility battery. Retained
// memory is O(budget), independent of the run count.
//
// Exactness contract vs. FullSummary (the reference arm; see the
// equivalence tests):
//
//   - TailSorted/FromTop within the reservoir, Min, Max, N: bit-identical
//     always. The tail fit and CV test read only these, so estimates are
//     bit-identical whenever the reservoir covers the auto-fit search
//     window (n/5 <= budget-1; beyond it the window is clamped to the
//     reservoir).
//   - Quantile/CountLE: bit-identical while the population has at most
//     budget distinct values (integer cycle grids in practice); otherwise
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
	tailSorted []float64 // ascending top-K reservoir, exact
	sketch     *QuantileSketch
	iid        *IIDState
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
		iid:    NewStreamingIID(sketch, budget),
	}
}

// Budget returns the configured memory budget K.
func (s *StreamingSummary) Budget() int { return s.budget }

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
	s.tailSorted = mergeTopK(s.tailSorted, SortedCopy(block), s.budget)
	s.iid.Push(block)
	if b := s.Bytes(); b > s.peak {
		s.peak = b
	}
}

// Merge folds another streaming summary (whose runs follow this summary's)
// into the receiver. Reservoir, sketch, count and min/max merge exactly and
// associatively; the battery merges per IIDState.mergeStream.
func (s *StreamingSummary) Merge(other SampleSummary) error {
	o, ok := other.(*StreamingSummary)
	if !ok {
		return fmt.Errorf("stats: cannot merge %T into *StreamingSummary", other)
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	if o.budget < s.budget {
		s.budget = o.budget // canonical: the stricter budget wins
		s.iid.capFirst(s.budget)
	}
	s.n += o.n
	s.sketch.Merge(o.sketch)
	s.tailSorted = mergeTopK(s.tailSorted, o.tailSorted, s.budget)
	s.iid.mergeStream(o.iid)
	if b := s.Bytes(); b > s.peak {
		s.peak = b
	}
	return nil
}

// IID reports the streaming admissibility battery.
func (s *StreamingSummary) IID() IIDReport { return s.iid.Report() }

// View snapshots the reservoir and sketch; later pushes do not change it.
func (s *StreamingSummary) View() SampleView {
	return &streamView{
		n:          s.n,
		min:        s.min,
		max:        s.max,
		tailSorted: append([]float64(nil), s.tailSorted...),
		sketch:     s.sketch.Clone(),
	}
}

// PeakBytes returns the high-water retained memory across pushes.
func (s *StreamingSummary) PeakBytes() int { return s.peak }

func (s *StreamingSummary) N() int { return s.n }

func (s *StreamingSummary) Min() float64 {
	if s.n == 0 {
		panic(ErrEmptySample)
	}
	return s.min
}

func (s *StreamingSummary) Max() float64 {
	if s.n == 0 {
		panic(ErrEmptySample)
	}
	return s.max
}

func (s *StreamingSummary) TailSorted() []float64 { return s.tailSorted }

func (s *StreamingSummary) FromTop(k int) float64 {
	return fromTopStream(s.tailSorted, s.sketch, s.n, k)
}

func (s *StreamingSummary) CountLE(x float64) int      { return s.sketch.CountLE(x) }
func (s *StreamingSummary) Quantile(q float64) float64 { return s.sketch.Quantile(q) }

// Bytes counts the reservoir, sketch and battery state.
func (s *StreamingSummary) Bytes() int {
	return len(s.tailSorted)*8 + s.sketch.Bytes() + s.iid.Bytes() + 64
}

// streamView is a bounded-memory point-in-time snapshot.
type streamView struct {
	n          int
	min, max   float64
	tailSorted []float64
	sketch     *QuantileSketch
}

func (v *streamView) N() int                { return v.n }
func (v *streamView) Min() float64          { return v.min }
func (v *streamView) Max() float64          { return v.max }
func (v *streamView) TailSorted() []float64 { return v.tailSorted }
func (v *streamView) CountLE(x float64) int { return v.sketch.CountLE(x) }
func (v *streamView) Quantile(q float64) float64 {
	return v.sketch.Quantile(q)
}

func (v *streamView) FromTop(k int) float64 {
	return fromTopStream(v.tailSorted, v.sketch, v.n, k)
}

func (v *streamView) Bytes() int {
	return len(v.tailSorted)*8 + v.sketch.Bytes() + 32
}

// fromTopStream resolves the k-th largest observation: exact off the
// reservoir while k is within it (tailSorted[len-k] is the true sorted[n-k]
// because the reservoir holds the n-largest multiset), by sketch rank below
// it.
func fromTopStream(tailSorted []float64, sketch *QuantileSketch, n, k int) float64 {
	if k < 1 || k > n {
		panic(ErrEmptySample)
	}
	if k <= len(tailSorted) {
		return tailSorted[len(tailSorted)-k]
	}
	return sketch.orderStat(n - k)
}

// mergeTopK merges two ascending-sorted slices and keeps the k largest
// values (the union multiset's top k — exact and associative under any
// merge order). The result is freshly allocated.
func mergeTopK(tailSortedA, tailSortedB []float64, k int) []float64 {
	merged := MergeSorted(tailSortedA, tailSortedB)
	if len(merged) > k {
		merged = append([]float64(nil), merged[len(merged)-k:]...)
	}
	return merged
}
