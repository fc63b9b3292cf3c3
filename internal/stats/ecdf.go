package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a sample.
// It supports both cumulative probabilities F(x) = P[X <= x] and exceedance
// (complementary) probabilities 1 - F(x), the representation used for pWCET
// curves in the MBPTA literature. It is also the full sample's SampleView:
// every query is exact.
type ECDF struct {
	sorted []float64 // ascending
}

// NewECDF builds an ECDF from sample. The sample is copied, so the caller
// may reuse the slice. It panics on an empty sample.
func NewECDF(sample []float64) *ECDF {
	if len(sample) == 0 {
		panic(ErrEmptySample)
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Min returns the smallest sample value.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// TailSorted returns the whole ascending-sorted sample: a full view's exact
// tail is the sample itself. The returned slice must not be modified.
func (e *ECDF) TailSorted() []float64 { return e.sorted }

// FromTop returns the k-th largest sample value (1 <= k <= N).
func (e *ECDF) FromTop(k int) float64 { return e.sorted[len(e.sorted)-k] }

// CountLE returns the number of sample values <= x.
func (e *ECDF) CountLE(x float64) int {
	n := sort.SearchFloat64s(e.sorted, x)
	for n < len(e.sorted) && e.sorted[n] == x {
		n++
	}
	return n
}

// P returns the empirical P[X <= x].
func (e *ECDF) P(x float64) float64 { return float64(e.CountLE(x)) / float64(len(e.sorted)) }

// Exceedance returns the empirical exceedance probability P[X > x], the
// quantity plotted on the y axis of an ECCDF / pWCET figure.
func (e *ECDF) Exceedance(x float64) float64 { return 1 - e.P(x) }

// Quantile returns the q-th quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 { return QuantileSorted(e.sorted, q) }

// ECCDFPoint is one (value, exceedance-probability) coordinate of an ECCDF.
type ECCDFPoint struct {
	Value float64 // execution time
	Prob  float64 // P[X > Value]
}

// Points returns the full ECCDF as a step curve: one point per distinct
// sample value, with the exceedance probability immediately after that
// value. The points are ascending in Value and descending in Prob.
func (e *ECDF) Points() []ECCDFPoint {
	n := len(e.sorted)
	var pts []ECCDFPoint
	for i := 0; i < n; {
		j := i
		for j < n && e.sorted[j] == e.sorted[i] {
			j++
		}
		pts = append(pts, ECCDFPoint{Value: e.sorted[i], Prob: float64(n-j) / float64(n)})
		i = j
	}
	return pts
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between the samples behind e and other.
func (e *ECDF) KSStatistic(other *ECDF) float64 {
	var d float64
	i, j := 0, 0
	n1, n2 := len(e.sorted), len(other.sorted)
	for i < n1 && j < n2 {
		x1, x2 := e.sorted[i], other.sorted[j]
		x := x1
		if x2 < x {
			x = x2
		}
		for i < n1 && e.sorted[i] <= x {
			i++
		}
		for j < n2 && other.sorted[j] <= x {
			j++
		}
		diff := math64Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > d {
			d = diff
		}
	}
	return d
}

func math64Abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// UpperBounds reports whether this ECDF stochastically upper-bounds other:
// at every point x, P[this > x] >= P[other > x] - tol. In MBPTA terms, the
// distribution of this sample is (empirically) pessimistic w.r.t. other.
// tol absorbs sampling noise; use 0 for exact dominance.
func (e *ECDF) UpperBounds(other *ECDF, tol float64) bool {
	// Evaluate at every jump point of both ECDFs.
	for _, x := range e.sorted {
		if e.Exceedance(x) < other.Exceedance(x)-tol {
			return false
		}
	}
	for _, x := range other.sorted {
		if e.Exceedance(x) < other.Exceedance(x)-tol {
			return false
		}
	}
	return true
}
