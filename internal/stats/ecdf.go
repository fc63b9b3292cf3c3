package stats

import "math"

// ECDF is an empirical cumulative distribution function built from a sample.
// It supports both cumulative probabilities F(x) = P[X <= x] and exceedance
// (complementary) probabilities 1 - F(x), the representation used for pWCET
// curves in the MBPTA literature. It is also the full sample's SampleView:
// every query is exact. The order-statistic queries (Min, Max, FromTop,
// CountLE, Quantile) are its sorted view's, which holds the sample as runs.
type ECDF struct {
	Sorted
}

// NewECDF builds an ECDF from sample. The sample is copied, so the caller
// may reuse the slice. It panics on an empty sample.
func NewECDF(sample []float64) *ECDF {
	if len(sample) == 0 {
		panic(ErrEmptySample)
	}
	return &ECDF{SortedCopy(sample)}
}

// N returns the sample size.
func (e *ECDF) N() int { return e.Len() }

// TailSorted returns the whole sorted view: a full view's exact tail is the
// sample itself.
func (e *ECDF) TailSorted() Sorted { return e.Sorted }

// P returns the empirical P[X <= x].
func (e *ECDF) P(x float64) float64 { return float64(e.CountLE(x)) / float64(e.Len()) }

// Exceedance returns the empirical exceedance probability P[X > x], the
// quantity plotted on the y axis of an ECCDF / pWCET figure.
func (e *ECDF) Exceedance(x float64) float64 { return 1 - e.P(x) }

// ECCDFPoint is one (value, exceedance-probability) coordinate of an ECCDF.
type ECCDFPoint struct {
	Value float64 // execution time
	Prob  float64 // P[X > Value]
}

// Points returns the full ECCDF as a step curve: one point per distinct
// sample value, with the exceedance probability immediately after that
// value. The points are ascending in Value and descending in Prob. -0 and
// +0 tie, so they share one point, valued -0; each NaN payload is a point
// of its own.
func (e *ECDF) Points() []ECCDFPoint {
	n := e.Len()
	vals, cum := e.runs()
	pts := make([]ECCDFPoint, 0, len(vals))
	for r := 0; r < len(vals); r++ {
		v := vals[r]
		for r+1 < len(vals) && vals[r+1] == v {
			r++
		}
		pts = append(pts, ECCDFPoint{Value: v, Prob: float64(n-cum[r]) / float64(n)})
	}
	return pts
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between the samples behind e and other. It
// walks both views' runs at once in view order, evaluating at each value
// where either ECDF steps; -0 and +0 tie, and each NaN payload is a value
// of its own, below every number.
func (e *ECDF) KSStatistic(other *ECDF) float64 {
	av, ac := e.runs()
	bv, bc := other.runs()
	n1, n2 := float64(e.Len()), float64(other.Len())
	var d float64
	i, j := 0, 0   // runs walked
	ci, cj := 0, 0 // values walked
	for i < len(av) && j < len(bv) {
		x := av[i]
		if y := bv[j]; orderKey(y) < orderKey(x) {
			x = y
		}
		for i < len(av) && steps(av[i], x) {
			ci = ac[i]
			i++
		}
		for j < len(bv) && steps(bv[j], x) {
			cj = bc[j]
			j++
		}
		diff := math.Abs(float64(ci)/n1 - float64(cj)/n2)
		if diff > d {
			d = diff
		}
	}
	return d
}

// steps reports whether a walk evaluating at x takes in a run of v: v <= x,
// or v is x itself, which only matters for a NaN.
func steps(v, x float64) bool { return v <= x || math.Float64bits(v) == math.Float64bits(x) }

// UpperBounds reports whether this ECDF stochastically upper-bounds other:
// at every point x, P[this > x] >= P[other > x] - tol. In MBPTA terms, the
// distribution of this sample is (empirically) pessimistic w.r.t. other.
// tol absorbs sampling noise; use 0 for exact dominance.
func (e *ECDF) UpperBounds(other *ECDF, tol float64) bool {
	// Evaluate at every jump point of both ECDFs: the values of their runs.
	ev, _ := e.runs()
	ov, _ := other.runs()
	for _, vals := range [][]float64{ev, ov} {
		for _, x := range vals {
			if e.Exceedance(x) < other.Exceedance(x)-tol {
				return false
			}
		}
	}
	return true
}
