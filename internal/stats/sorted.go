package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Sorted is an ascending view of a sample, the precondition of every
// order-statistic query in the estimation pipeline: the tail fit and the CV
// test read the top maxima, the composite curve reads ranks and the i.i.d.
// battery reads the median. It holds the sample in run-length form, one
// (value, cumulative count) pair per run of equal values, so it costs O(d)
// for d runs: on campaign data, integer cycle counts, a run is a distinct
// value and d is a few hundred however many runs were measured. It also
// keeps a flat copy of its largest values (Top), which the tail fit reads
// by index.
//
// Len, Min and Max are O(1). CountLE, Quantile and FromTop are O(log d),
// and FromTop is O(1) within the flat copy.
//
// The view order puts every NaN first (sort.Float64s's order), then ascends,
// with -0 below +0. Runs are keyed by bit pattern: -0 and +0, or two NaN
// payloads, are separate runs, and no two runs hold the same bits.
//
// A Sorted is one pointer to its runs, so passing or returning one copies a
// word. The runs are unexported, so outside this package a Sorted comes
// only from SortedCopy or a summary's view, and the compiler rejects a raw
// slice where a sorted view is due. The zero value is an empty view. A
// Sorted is read-only, and so is every slice Top returns.
type Sorted struct{ *sortedRuns }

// sortedRuns is the data behind a non-empty Sorted.
type sortedRuns struct {
	vals []float64 // one value per run, in view order
	cum  []int     // cum[i]: the values in runs 0..i
	top  []float64 // the largest min(Len, topLen) values, ascending
}

// topLen is how many of its largest values a view keeps flat: the auto-fit
// ladder's first steps (mbpta's default TailCount is 10, and each step grows
// the tail by half) read that many without materializing any.
const topLen = 256

// SortedCopy returns the sorted view of xs. It is the entry point of the
// sort-once estimation path for a sample held flat: callers sort it a single
// time and read every order statistic off the view. It sorts a copy of xs,
// O(n log n), and keeps O(d).
func SortedCopy(xs []float64) Sorted {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return compactSorted(s)
}

// compactSorted returns the view of xs, which is ascending in sort.Float64s's
// order: NaNs first, and tied values (±0, NaN payloads) in any order among
// themselves. It finds the end of each tie by galloping (lead), so on
// campaign data, where a tie is a run of one cycle count, it costs
// O(d·log(n/d)) comparisons. A tie of zeros or NaNs may hold several bit
// patterns, so it is put in view order by its keys; any other tie is one
// run.
func compactSorted(xs []float64) Sorted {
	if len(xs) == 0 {
		return Sorted{}
	}
	s := &sortedRuns{}
	for i := 0; i < len(xs); {
		x := xs[i]
		j := i + 1
		if x == x {
			j += lead(xs[j:], x, true)
		} else {
			for j < len(xs) && xs[j] != xs[j] {
				j++
			}
		}
		if tie := xs[i:j]; x == 0 || x != x {
			tie = slices.Clone(tie)
			slices.SortFunc(tie, func(a, b float64) int { return cmp.Compare(orderKey(a), orderKey(b)) })
			for len(tie) > 0 {
				k := 1
				for k < len(tie) && math.Float64bits(tie[k]) == math.Float64bits(tie[0]) {
					k++
				}
				s.appendRun(tie[0], k)
				tie = tie[k:]
			}
		} else {
			s.appendRun(x, j-i)
		}
		i = j
	}
	s.top = Sorted{s}.flatTop(topLen)
	return Sorted{s}
}

// appendRun appends a run of count copies of v, which follows every run
// already in the view.
func (s *sortedRuns) appendRun(v float64, count int) {
	n := 0
	if len(s.cum) > 0 {
		n = s.cum[len(s.cum)-1]
	}
	s.vals = append(s.vals, v)
	s.cum = append(s.cum, n+count)
}

// orderKey maps v to an unsigned key whose order is the view order: IEEE
// 754 totalOrder (the sign bit decides, then the other bits, reversed for
// negative values), rotated by 2^52-1 so that the positive NaNs at its top
// wrap around to the bottom, below the negative NaNs. No two bit patterns
// share a key.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return b + (1<<52 - 1)
}

// QuantileSorted is Quantile for a sample already held as a sorted view,
// avoiding the copy and sort: s.Quantile(q).
func QuantileSorted(s Sorted, q float64) float64 { return s.Quantile(q) }

// Len returns the number of values in the view.
func (s Sorted) Len() int {
	if s.sortedRuns == nil {
		return 0
	}
	return s.cum[len(s.cum)-1]
}

// runs returns the view's run values and cumulative counts, nil for an
// empty view.
func (s Sorted) runs() (vals []float64, cum []int) {
	if s.sortedRuns == nil {
		return nil, nil
	}
	return s.vals, s.cum
}

// Min returns the smallest value.
func (s Sorted) Min() float64 { return s.vals[0] }

// Max returns the largest value.
func (s Sorted) Max() float64 { return s.vals[len(s.vals)-1] }

// at returns the value of ascending rank r (0 <= r < Len): the value of the
// first run whose cumulative count exceeds r.
func (s Sorted) at(r int) float64 {
	i, _ := slices.BinarySearch(s.cum, r+1)
	return s.vals[i]
}

// FromTop returns the k-th largest value (1 <= k <= Len).
func (s Sorted) FromTop(k int) float64 {
	if t := len(s.top); k <= t {
		return s.top[t-k]
	}
	return s.at(s.Len() - k)
}

// Top returns at least the largest min(k, Len) values, ascending, as a
// flat slice to be read from its end: the view's own flat copy of its
// largest values, read-only, when that holds them, else a fresh copy of
// exactly the largest min(k, Len), materialized from the runs in
// O(k + log d).
func (s Sorted) Top(k int) []float64 {
	if s.sortedRuns == nil {
		return nil
	}
	if k <= len(s.top) || len(s.top) == s.Len() {
		return s.top
	}
	return s.flatTop(k)
}

// flatTop materializes the largest min(k, Len) values, ascending, into a
// fresh slice.
func (s Sorted) flatTop(k int) []float64 {
	out := make([]float64, min(k, s.Len()))
	w := len(out)
	for r := len(s.vals) - 1; w > 0; r-- {
		c := s.cum[r]
		if r > 0 {
			c -= s.cum[r-1]
		}
		for range min(c, w) {
			w--
			out[w] = s.vals[r]
		}
	}
	return out
}

// CountLE returns the number of values <= x: one upper-bound binary search
// over the runs, O(log d).
func (s Sorted) CountLE(x float64) int {
	if s.sortedRuns == nil {
		return 0
	}
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > x })
	if i == 0 {
		return 0
	}
	return s.cum[i-1]
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between order statistics (type 7, the R default). It panics on an empty
// view.
func (s Sorted) Quantile(q float64) float64 {
	n := s.Len()
	if n == 0 {
		panic(ErrEmptySample)
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.at(lo)
	}
	frac := pos - float64(lo)
	return s.at(lo)*(1-frac) + s.at(hi)*frac
}

// bytes is the view's size: 16 B per run and 8 B per flat top value.
func (s Sorted) bytes() int {
	if s.sortedRuns == nil {
		return 0
	}
	return 16*len(s.vals) + 8*len(s.top)
}

// sortedFlat returns an ascending-sorted copy of xs, sort.Float64s's order:
// the form of the streaming arm's private slices.
func sortedFlat(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// mergeFlat merges the ascending a and b into a fresh, exact-size slice,
// a's values first on ties.
func mergeFlat(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b))
	mergeInto(out, a, b)
	return out
}

// mergeInto writes the merge of the ascending a and b to
// dst[:len(a)+len(b)], a's values first on ties: the order of an
// element-by-element merge that takes a's next value while it is <= b's
// (also with NaNs, as long as each side's NaNs lead it, where sort.Float64s
// puts them). It moves each stretch of one side that precedes the other
// side's next value with one copy, found by lead, so a merge costs
// O(s·log(n/s)) comparisons for s stretches, however many values tie.
//
// dst may overlap a if it starts at or before a, the in-place merges of the
// streaming reservoir and KS first half: the write index never passes a's
// read index (b holds no more values than the room below a), and the values
// of a left when b is spent are already in place.
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
