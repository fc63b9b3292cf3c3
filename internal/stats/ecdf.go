package stats

import "math"

// ECDF is an empirical cumulative distribution function built from a sample.
// It supports both cumulative probabilities F(x) = P[X <= x] and exceedance
// (complementary) probabilities 1 - F(x), the representation used for pWCET
// curves in the MBPTA literature. It is also the full sample's SampleView:
// every query is exact. The order-statistic queries (Min, Max, FromTop,
// CountLE, Quantile) are its sorted sample's.
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

// TailSorted returns the whole sorted sample: a full view's exact tail is
// the sample itself.
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
// value. The points are ascending in Value and descending in Prob.
func (e *ECDF) Points() []ECCDFPoint {
	n := len(e.xs)
	var pts []ECCDFPoint
	for i := 0; i < n; {
		j := i
		for j < n && e.xs[j] == e.xs[i] {
			j++
		}
		pts = append(pts, ECCDFPoint{Value: e.xs[i], Prob: float64(n-j) / float64(n)})
		i = j
	}
	return pts
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between the samples behind e and other.
func (e *ECDF) KSStatistic(other *ECDF) float64 {
	var d float64
	i, j := 0, 0
	n1, n2 := len(e.xs), len(other.xs)
	for i < n1 && j < n2 {
		x1, x2 := e.xs[i], other.xs[j]
		x := x1
		if x2 < x {
			x = x2
		}
		for i < n1 && e.xs[i] <= x {
			i++
		}
		for j < n2 && other.xs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > d {
			d = diff
		}
	}
	return d
}

// UpperBounds reports whether this ECDF stochastically upper-bounds other:
// at every point x, P[this > x] >= P[other > x] - tol. In MBPTA terms, the
// distribution of this sample is (empirically) pessimistic w.r.t. other.
// tol absorbs sampling noise; use 0 for exact dominance.
func (e *ECDF) UpperBounds(other *ECDF, tol float64) bool {
	// Evaluate at every jump point of both ECDFs.
	for _, x := range e.xs {
		if e.Exceedance(x) < other.Exceedance(x)-tol {
			return false
		}
	}
	for _, x := range other.xs {
		if e.Exceedance(x) < other.Exceedance(x)-tol {
			return false
		}
	}
	return true
}
