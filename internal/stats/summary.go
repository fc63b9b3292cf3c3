package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

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
	// reservoir on a streaming view. It is a run-length view whose Top
	// hands the tail fit its largest values flat.
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
// Two implementations exist: FullSummary retains the sample, compactly, as
// dictionary codes (the reference arm) and StreamingSummary holds memory
// independent of the run count (the fast arm). See their docs for the
// exactness contract between them.
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
	// full summary each call is two passes over the codes, O(n + d), the
	// Ljung-Box sums having been folded by Push; on a streaming summary its
	// cost depends on the budget, not on n. Callers report once per
	// estimate they hand out, not once per push.
	IID() IIDReport
	// View returns an immutable point-in-time snapshot for curve
	// construction: later Pushes into the summary do not change it.
	View() SampleView
	// PeakBytes returns the high-water mark of the retained memory,
	// sampled after every Push and every IID.
	PeakBytes() int
}

// FullSummary is the exact reference arm of the estimation pipeline, kept
// compact: a dictionary of the distinct values pushed, in order of first
// appearance, the run order as each run's dictionary code, and per-code
// counts, from which every Push rebuilds the sorted view in O(d) for d
// distinct values. Codes take 2 B per run while d <= 65,536 and 4 B once
// past that, so on campaign data (a few hundred distinct cycle counts) the
// sample costs 2 B per run where a flat copy costs 8. Its battery reads the
// codes, the view and the Ljung-Box sums Push folds, and its View, an ECDF,
// answers every query exactly. A full summary is only ever built by pushing
// runs into NewFullSummary, so its fields are this file's alone: no wire
// format or other code reads them.
//
//pubtac:reference summary
type FullSummary struct {
	dict    []float64    // code → value, in order of first appearance
	counts  []int        // code → runs pushed with that value
	order   []uint32     // the codes in view order
	slots   []uint32     // index of dict by bit pattern, open addressing: code+1, 0 when empty
	shift   uint         // 64 - log2(len(slots))
	codes16 []uint16     // the run order, while every code fits in 16 bits
	codes32 []uint32     // the run order, once a code does not
	lb      ljungBoxSums // the battery's Ljung-Box sums over every run pushed
	sorted  Sorted       // the view of every run pushed
	oneShot bool         // IID runs the one-shot CheckIID reference
}

// NewFullSummary returns an empty full summary. With fastIID its IID is the
// one-pass battery over the summary's codes, view and Ljung-Box sums
// (fullIID); without it IID runs the one-shot CheckIID reference over the
// decoded sample (mbpta.NewEstimate and DecodeSummary), and Push folds no
// Ljung-Box sums.
func NewFullSummary(fastIID bool) *FullSummary {
	return &FullSummary{slots: make([]uint32, 16), shift: 60, oneShot: !fastIID}
}

// Push appends a block of runs: O(|block| + d), plus O(m log m) for m new
// distinct values. It encodes the block, folds it into the Ljung-Box sums
// and rebuilds the view from the counts. It sorts no run and allocates
// nothing of the sample's size beyond the codes' own growth; the view is a
// fresh snapshot, so views taken before stay valid.
func (s *FullSummary) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	if !s.oneShot {
		s.lb.push(block)
	}
	d := len(s.dict)
	rest := block
	if s.codes32 == nil {
		var k int
		s.codes16, k = appendCodes(s, s.codes16, rest)
		if rest = rest[k:]; len(rest) > 0 {
			s.widen()
		}
	}
	if len(rest) > 0 {
		s.codes32, _ = appendCodes(s, s.codes32, rest)
	}
	if len(s.dict) > d {
		s.insertOrder(d)
	}
	s.sorted = s.view()
}

// appendCodes appends the codes of block's runs to codes, counting each
// and adding new values to the dictionary. It returns the codes and how
// many runs it took: all of block, or those before the first run whose code
// does not fit in C.
func appendCodes[C uint16 | uint32](s *FullSummary, codes []C, block []float64) ([]C, int) {
	if len(block) > cap(codes)-len(codes) {
		// At least double: append grows large slices by a quarter, which
		// allocates five times the final size over a campaign's rounds.
		codes = slices.Grow(codes, max(len(block), len(codes)))
	}
	limit := int(^C(0))
	for i, v := range block {
		c := s.code(v)
		if c > limit {
			return codes, i
		}
		s.counts[c]++
		codes = append(codes, C(c))
	}
	return codes, len(block)
}

// widen moves the run order to 4-byte codes, once a code needs them.
func (s *FullSummary) widen() {
	s.codes32 = make([]uint32, len(s.codes16), 2*len(s.codes16))
	for i, c := range s.codes16 {
		s.codes32[i] = uint32(c)
	}
	s.codes16 = nil
}

// hashMul is the multiplier of the index's Fibonacci hash: the slot is the
// top bits of a value's bit pattern times 2^64/φ.
const hashMul = 0x9E3779B97F4A7C15

// code returns the code of v's bit pattern, adding v to the dictionary
// when the pattern is new.
func (s *FullSummary) code(v float64) int {
	b := math.Float64bits(v)
	mask := len(s.slots) - 1
	for i := int(b * hashMul >> s.shift); ; i = (i + 1) & mask {
		c := s.slots[i]
		if c == 0 {
			return s.add(v, i)
		}
		if math.Float64bits(s.dict[c-1]) == b {
			return int(c - 1)
		}
	}
}

// add gives v the next code, at the empty index slot where its probe
// ended, and doubles the index once it is half full.
func (s *FullSummary) add(v float64, slot int) int {
	c := len(s.dict)
	s.dict = append(s.dict, v)
	s.counts = append(s.counts, 0)
	s.slots[slot] = uint32(c + 1)
	if 2*len(s.dict) > len(s.slots) {
		s.slots = make([]uint32, 2*len(s.slots))
		s.shift--
		mask := len(s.slots) - 1
		for c, v := range s.dict {
			i := int(math.Float64bits(v) * hashMul >> s.shift)
			for s.slots[i] != 0 {
				i = (i + 1) & mask
			}
			s.slots[i] = uint32(c + 1)
		}
	}
	return c
}

// insertOrder merges the codes from..len(dict)-1, new in this push, into
// the view order: sorted by key among themselves, then merged in O(d).
func (s *FullSummary) insertOrder(from int) {
	key := func(c uint32) uint64 { return orderKey(s.dict[c]) }
	fresh := make([]uint32, len(s.dict)-from)
	for i := range fresh {
		fresh[i] = uint32(from + i)
	}
	slices.SortFunc(fresh, func(a, b uint32) int { return cmp.Compare(key(a), key(b)) })
	old := s.order
	s.order = make([]uint32, 0, len(s.dict))
	for len(old) > 0 && len(fresh) > 0 {
		if key(old[0]) < key(fresh[0]) {
			s.order, old = append(s.order, old[0]), old[1:]
		} else {
			s.order, fresh = append(s.order, fresh[0]), fresh[1:]
		}
	}
	s.order = append(append(s.order, old...), fresh...)
}

// view builds the sorted view from the counts: one run per code, in view
// order, O(d), plus the flat top.
func (s *FullSummary) view() Sorted {
	v := Sorted{&sortedRuns{vals: make([]float64, len(s.order)), cum: make([]int, len(s.order))}}
	n := 0
	for i, c := range s.order {
		n += s.counts[c]
		v.vals[i], v.cum[i] = s.dict[c], n
	}
	v.top = v.flatTop(topLen)
	return v
}

// Sample decodes the run-ordered sample into a fresh slice.
func (s *FullSummary) Sample() []float64 { return s.Prefix(s.N()) }

// Prefix decodes the first n runs pushed (0 <= n <= N), in run order, into
// a fresh slice.
func (s *FullSummary) Prefix(n int) []float64 {
	if s.codes32 != nil {
		return decode(s.dict, s.codes32[:n])
	}
	return decode(s.dict, s.codes16[:n])
}

func decode[C uint16 | uint32](dict []float64, codes []C) []float64 {
	out := make([]float64, len(codes))
	for i, c := range codes {
		out[i] = dict[c]
	}
	return out
}

// IID reports the admissibility battery, one-pass or one-shot reference. It
// retains nothing.
func (s *FullSummary) IID() IIDReport {
	if s.oneShot {
		return CheckIID(s.Sample())
	}
	return fullIID(s)
}

// View snapshots the current sorted view as an ECDF. Pushes replace (never
// mutate) the sorted view, so the snapshot stays valid as the summary
// grows.
func (s *FullSummary) View() SampleView { return &ECDF{s.sorted} }

// PeakBytes returns the high-water retained memory. A full summary only
// grows, so that is its current size: the codes, 2 B per run (4 B once
// widened); per distinct value 8 B of dictionary, 8 B of count and 4 B of
// view order; 4 B per index slot (the index is at most half full, so 8–16 B
// per distinct value); the view, 16 B per run of it plus 8 B per value of
// its flat top (at most 256); and the Ljung-Box sums' first and last 20
// runs, 8 B each. The battery's report-time scratch is not counted.
func (s *FullSummary) PeakBytes() int {
	return 2*len(s.codes16) + 4*len(s.codes32) + 20*len(s.dict) + 4*len(s.slots) +
		s.sorted.bytes() + s.lb.bytes()
}

// N returns the number of runs pushed.
func (s *FullSummary) N() int { return len(s.codes16) + len(s.codes32) }

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
	budget   int
	n        int
	min, max float64
	tail     []float64 // top-K reservoir, exact, ascending
	sketch   *QuantileSketch
	iid      streamIID
	peak     int
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

// View snapshots the reservoir, as a sorted view of its own, and the
// sketch; later pushes do not change it.
func (s *StreamingSummary) View() SampleView {
	return &streamView{
		n:          s.n,
		min:        s.min,
		max:        s.max,
		tailSorted: compactSorted(s.tail),
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
	return len(s.tail)*8 + s.sketch.Bytes() + s.iid.bytes() + 64
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
	if len(s.tail) < s.budget {
		merged := mergeFlat(s.tail, sortedFlat(block))
		if over := len(merged) - s.budget; over > 0 {
			merged = slices.Clone(merged[over:])
		}
		s.tail = merged
		return
	}
	in := make([]float64, 0, len(block))
	for _, v := range block {
		if v > s.tail[0] {
			in = append(in, v)
		}
	}
	sort.Float64s(in)
	mergeTopKInPlace(s.tail, in)
}

// mergeTopKInPlace overwrites tailSorted with the len(tailSorted) largest
// values of tailSorted and sortedIn, both ascending, in the order
// mergeFlat(tailSorted, sortedIn) gives them (on ties, sortedIn's value
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
