package stats

import (
	"math"
	"sort"
)

// Sorted is an ascending view of a sample, the precondition of every
// order-statistic query in the estimation pipeline: the tail fit and the CV
// test read the top maxima, the composite curve reads ranks and the i.i.d.
// battery reads the median. Its slice is unexported, so outside this
// package a Sorted comes only from SortedCopy or MergeSorted, and the
// compiler rejects a raw slice where a sorted view is due. The zero value is
// an empty view. A Sorted is read-only: nothing modifies a slice once a
// Sorted wraps it.
type Sorted struct {
	xs []float64 // ascending
}

// SortedCopy returns an ascending-sorted copy of xs. It is the entry point
// of the sort-once estimation path: callers sort a sample a single time and
// hand the view to QuantileSorted, CheckIIDSorted or AdoptFullSummary.
func SortedCopy(xs []float64) Sorted {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Sorted{s}
}

// MergeSorted merges two sorted views into a new one (a's values first on
// ties). Growing campaigns use it to maintain a sorted view across
// convergence rounds in O(n + inc) instead of re-sorting the whole sample.
func MergeSorted(a, b Sorted) Sorted {
	out := make([]float64, 0, len(a.xs)+len(b.xs))
	i, j := 0, 0
	for i < len(a.xs) && j < len(b.xs) {
		if a.xs[i] <= b.xs[j] {
			out = append(out, a.xs[i])
			i++
		} else {
			out = append(out, b.xs[j])
			j++
		}
	}
	out = append(out, a.xs[i:]...)
	out = append(out, b.xs[j:]...)
	return Sorted{out}
}

// QuantileSorted is Quantile for a sample already held as a sorted view,
// avoiding the copy and sort: s.Quantile(q).
func QuantileSorted(s Sorted, q float64) float64 { return s.Quantile(q) }

// Len returns the number of values in the view.
func (s Sorted) Len() int { return len(s.xs) }

// Min returns the smallest value.
func (s Sorted) Min() float64 { return s.xs[0] }

// Max returns the largest value.
func (s Sorted) Max() float64 { return s.xs[len(s.xs)-1] }

// FromTop returns the k-th largest value (1 <= k <= Len).
func (s Sorted) FromTop(k int) float64 { return s.xs[len(s.xs)-k] }

// CountLE returns the number of values <= x: one upper-bound binary search,
// O(log n) however many values tie at x.
func (s Sorted) CountLE(x float64) int {
	return sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between order statistics (type 7, the R default). It panics on an empty
// view.
func (s Sorted) Quantile(q float64) float64 {
	xs := s.xs
	if len(xs) == 0 {
		panic(ErrEmptySample)
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
