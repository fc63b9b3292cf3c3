package stats

import (
	"math"
	"sort"
)

// QuantileSketch is a bounded-memory empirical distribution: a histogram
// whose bucket width adapts to the data so the bucket count never exceeds a
// budget. It is the body-quantile half of the streaming estimation path (the
// exact upper tail lives in the summary's reservoir).
//
// Resolution model. While the data has at most budget distinct values the
// sketch stores them exactly (step 0): every count, quantile and CountLE is
// then bit-identical to the full-sample answer — execution times on an
// integer cycle grid land here in practice. When the distinct count
// overflows the budget, values are quantized to buckets of width step, with
// step the SMALLEST power of two at which the data fits the budget. Counts
// stay exact (they count real observations); only value resolution is lost,
// so rank queries are exact over the quantized multiset and value queries
// err by less than step < 2·span/(budget-1).
//
// Chunking invariance. Push quantizes the block at the current step, merges
// it into the buckets and re-canonicalizes. Because bucket multisets only
// shrink under power-of-two coarsening and floor-rebinning between
// power-of-two steps composes exactly (floor(floor(v/s)/2^j) =
// floor(v/(s·2^j))), a sketch's state depends only on the multiset of pushed
// values, not on the chunking — the index-addressed determinism discipline
// of the collection layer carries through.
//
// The zero value is unusable; use NewQuantileSketch. Not safe for
// concurrent use.
type QuantileSketch struct {
	budget int
	step   float64   // 0 = exact distinct values; else power-of-two bucket width
	vals   []float64 // ascending: exact values, or bucket lower edges (multiples of step)
	counts []int64   // counts[i] observations in bucket vals[i]; always > 0
	n      int64
}

// minSketchBudget keeps the sketch meaningful: below ~a few dozen buckets
// the median loses the resolution the battery needs.
const minSketchBudget = 16

// NewQuantileSketch returns an empty sketch holding at most budget buckets
// (floored at a small usable minimum).
func NewQuantileSketch(budget int) *QuantileSketch {
	if budget < minSketchBudget {
		budget = minSketchBudget
	}
	return &QuantileSketch{budget: budget}
}

// quantizeTo maps v onto the bucket grid of width step (a power of two).
// Division and multiplication by a power of two are exact in IEEE floats, so
// rebinning composes exactly across coarsenings.
func quantizeTo(v, step float64) float64 {
	if step == 0 {
		return v
	}
	return math.Floor(v/step) * step
}

// N returns the number of observations pushed so far.
func (s *QuantileSketch) N() int { return int(s.n) }

// Step returns the current bucket width: 0 while the sketch is exact, else
// the power-of-two resolution bounding the value error of quantile queries.
func (s *QuantileSketch) Step() float64 { return s.step }

// Buckets returns the bucket count (memory accounting and tests).
func (s *QuantileSketch) Buckets() int { return len(s.vals) }

// Push adds a block of observations. Cost: O(len(block)·log len(block) +
// buckets), independent of the total pushed count.
func (s *QuantileSketch) Push(block []float64) {
	if len(block) == 0 {
		return
	}
	q := make([]float64, len(block))
	for i, v := range block {
		q[i] = quantizeTo(v, s.step)
	}
	sort.Float64s(q)
	s.mergeRuns(q)
	s.compact()
}

// mergeRuns merges an ascending, already-quantized slice of observations
// into the bucket lists.
func (s *QuantileSketch) mergeRuns(q []float64) {
	vals := make([]float64, 0, len(s.vals)+len(q))
	counts := make([]int64, 0, len(s.counts)+len(q))
	i, j := 0, 0
	for i < len(s.vals) || j < len(q) {
		switch {
		case j >= len(q) || (i < len(s.vals) && s.vals[i] < q[j]):
			vals = append(vals, s.vals[i])
			counts = append(counts, s.counts[i])
			i++
		default:
			v := q[j]
			var c int64
			for j < len(q) && q[j] == v {
				c++
				j++
			}
			if i < len(s.vals) && s.vals[i] == v {
				c += s.counts[i]
				i++
			}
			vals = append(vals, v)
			counts = append(counts, c)
		}
	}
	s.vals, s.counts = vals, counts
	s.n += int64(len(q))
}

// compact coarsens the buckets to the canonical step: the smallest power of
// two at which the bucket count fits the budget. The bucket count is
// non-increasing along the power-of-two ladder (each doubling merges whole
// pairs of adjacent buckets), so a binary search over the exponent finds the
// canonical step. The search range is the full float64 exponent ladder — a
// fixed range, so the chosen step depends only on the bucket multiset, which
// is what makes the sketch chunking-invariant; steps too fine to evaluate
// (quantization overflows) are reported by countAt as not fitting,
// preserving the monotone threshold the search needs. At the top of the
// range everything collapses into at most two buckets, so the search always
// lands.
func (s *QuantileSketch) compact() {
	if len(s.vals) <= s.budget {
		return
	}
	lo, hi := -1074, 1023
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.countAt(math.Ldexp(1, mid)) <= s.budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.rebin(math.Ldexp(1, hi))
}

// countAt returns the bucket count after rebinning at step; buckets that
// would overflow to non-finite representatives count as unmergeable.
func (s *QuantileSketch) countAt(step float64) int {
	count := 0
	prev := math.Inf(-1)
	for _, v := range s.vals {
		qv := quantizeTo(v, step)
		if math.IsInf(qv, 0) || math.IsNaN(qv) {
			return len(s.vals) + 1
		}
		if count == 0 || qv != prev {
			count++
			prev = qv
		}
	}
	return count
}

// rebin quantizes the buckets at the (coarser, power-of-two) step in place.
func (s *QuantileSketch) rebin(step float64) {
	if step <= s.step {
		return
	}
	w := 0
	for i := range s.vals {
		qv := quantizeTo(s.vals[i], step)
		if w > 0 && s.vals[w-1] == qv {
			s.counts[w-1] += s.counts[i]
		} else {
			s.vals[w] = qv
			s.counts[w] = s.counts[i]
			w++
		}
	}
	s.vals = s.vals[:w]
	s.counts = s.counts[:w]
	s.step = step
}

// Clone returns an independent copy (snapshot views use it).
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.vals = append([]float64(nil), s.vals...)
	c.counts = append([]int64(nil), s.counts...)
	return &c
}

// orderStat returns the k-th (0-indexed) order statistic of the quantized
// multiset. It panics when k is out of range.
func (s *QuantileSketch) orderStat(k int) float64 {
	if k < 0 || int64(k) >= s.n {
		panic(ErrEmptySample)
	}
	rank := int64(k)
	for i, c := range s.counts {
		if rank < c {
			return s.vals[i]
		}
		rank -= c
	}
	panic(ErrEmptySample) // unreachable: counts sum to n
}

// Quantile returns the type-7 interpolated q-th quantile of the quantized
// multiset, using the same arithmetic as QuantileSorted so that in exact
// mode (step 0) the result is bit-identical to the full-sample quantile.
// It panics on an empty sketch.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		panic(ErrEmptySample)
	}
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(s.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.orderStat(lo)
	}
	frac := pos - float64(lo)
	return s.orderStat(lo)*(1-frac) + s.orderStat(hi)*frac
}

// CountLE returns the number of (quantized) observations <= x; in exact mode
// this is the full-sample count.
func (s *QuantileSketch) CountLE(x float64) int {
	var c int64
	for i, v := range s.vals {
		if v > x {
			break
		}
		c += s.counts[i]
	}
	return int(c)
}

// Bytes returns the retained memory of the sketch in bytes.
func (s *QuantileSketch) Bytes() int {
	return len(s.vals)*8 + len(s.counts)*8 + 48
}
