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
// Sorted wraps it, except in two owners that never hand theirs out and merge
// into it in place: the streaming summary's top-K reservoir and the i.i.d.
// battery's sorted KS first half.
type Sorted struct {
	xs []float64 // ascending
}

// SortedCopy returns an ascending-sorted copy of xs. It is the entry point
// of the sort-once estimation path: callers sort a sample a single time and
// hand the view to QuantileSorted or CheckIIDSorted.
func SortedCopy(xs []float64) Sorted {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Sorted{s}
}

// MergeSorted merges two sorted views into a new one (a's values first on
// ties). Growing campaigns use it to maintain a sorted view across
// convergence rounds instead of re-sorting the whole sample. The result is a
// fresh, exact-size slice, so views taken before the merge stay snapshots.
func MergeSorted(a, b Sorted) Sorted {
	out := make([]float64, len(a.xs)+len(b.xs))
	mergeInto(out, a.xs, b.xs)
	return Sorted{out}
}

// mergeInto writes the merge of the ascending a and b to
// dst[:len(a)+len(b)], a's values first on ties: the order of an
// element-by-element merge that takes a's next value while it is <= b's
// (also with NaNs, as long as each side's NaNs lead it, where SortedCopy
// puts them). It moves each stretch of one side that precedes the other
// side's next value with one copy, found by lead, so a merge costs
// O(s·log(n/s)) comparisons for s stretches, however many values tie.
//
// dst may overlap a if it starts at or before a, the in-place merges of the
// reservoir and the KS first half: the write index never passes a's read
// index (b holds no more values than the room below a), and the values of a
// left when b is spent are already in place.
func mergeInto(dst, a, b []float64) {
	w := 0
	for len(a) > 0 && len(b) > 0 {
		k := lead(a, b[0], true)
		w += copy(dst[w:], a[:k])
		if a = a[k:]; len(a) == 0 {
			break
		}
		k = lead(b, a[0], false)
		w += copy(dst[w:], b[:k])
		b = b[k:]
	}
	w += copy(dst[w:], b)
	if len(a) > 0 && &dst[w] != &a[0] {
		copy(dst[w:], a)
	}
}

// lead returns how many leading values of the ascending s precede x in a
// merge: those <= x when s's values go first on ties (tiesFirst), else
// those < x (tested as !(x <= v), the element-by-element merge's test). It
// gallops, probing s[0], s[1], s[3], s[7], ..., and bisects the last gap,
// so a lead of k values costs O(log k) comparisons.
func lead(s []float64, x float64, tiesFirst bool) int {
	before := func(v float64) bool {
		if tiesFirst {
			return v <= x
		}
		return !(x <= v)
	}
	n, step := 0, 1
	for n+step <= len(s) && before(s[n+step-1]) {
		n += step
		step *= 2
	}
	hi := min(n+step-1, len(s))
	for n < hi {
		if m := int(uint(n+hi) >> 1); before(s[m]) {
			n = m + 1
		} else {
			hi = m
		}
	}
	return n
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
