// Package stats implements the descriptive statistics, empirical
// distribution functions and hypothesis tests that measurement-based
// probabilistic timing analysis builds on.
//
// Everything operates on float64 samples (execution times in cycles). The
// package is dependency-free and deterministic: no function draws random
// numbers.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by functions that need at least one value.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. It returns 0
// for samples with fewer than two values.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs. It panics on an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmptySample)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmptySample)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The input
// need not be sorted. It panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmptySample)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileSorted is Quantile for an already ascending-sorted sample,
// avoiding the copy and sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic(ErrEmptySample)
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// SortedCopy returns an ascending-sorted copy of xs. It is the entry point
// of the sort-once estimation path: callers sort a sample a single time and
// hand the result to the *Sorted variants across stats, evt and mbpta.
func SortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// MergeSorted merges two ascending-sorted slices into a new ascending
// slice. Growing campaigns use it to maintain a sorted view across
// convergence rounds in O(n + inc) instead of re-sorting the whole sample.
func MergeSorted(sortedA, sortedB []float64) []float64 {
	out := make([]float64, 0, len(sortedA)+len(sortedB))
	i, j := 0, 0
	for i < len(sortedA) && j < len(sortedB) {
		if sortedA[i] <= sortedB[j] {
			out = append(out, sortedA[i])
			i++
		} else {
			out = append(out, sortedB[j])
			j++
		}
	}
	out = append(out, sortedA[i:]...)
	out = append(out, sortedB[j:]...)
	return out
}

// Autocorrelation returns the lag-k sample autocorrelation coefficient of
// xs. It returns 0 when the series is shorter than k+2 values or has zero
// variance.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || n < k+2 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n-k; i++ {
		num += (xs[i] - m) * (xs[i+k] - m)
	}
	for _, x := range xs {
		d := x - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// AutocorrelationsTo returns the lag-1..maxLag sample autocorrelation
// coefficients of xs, computing the mean and the normalizing denominator
// once and sharing them across lags. Per-lag results are bit-identical to
// Autocorrelation, which recomputes both on every call — a 20-lag Ljung-Box
// built on it scans the sample 40 extra times. Lags too long for the series
// (n < k+2) are reported as 0, matching Autocorrelation.
func AutocorrelationsTo(xs []float64, maxLag int) []float64 {
	if maxLag < 1 {
		return nil
	}
	rs := make([]float64, maxLag)
	n := len(xs)
	if n < 3 {
		return rs
	}
	m := Mean(xs)
	var den float64
	for _, x := range xs {
		d := x - m
		den += d * d
	}
	if den == 0 {
		return rs
	}
	for k := 1; k <= maxLag && n >= k+2; k++ {
		var num float64
		for i := 0; i < n-k; i++ {
			num += (xs[i] - m) * (xs[i+k] - m)
		}
		rs[k-1] = num / den
	}
	return rs
}

// MeanExcess returns the mean of (x - u) over all x in xs with x > u, and
// the number of such exceedances. It is the basic estimator for the rate of
// an exponential tail above threshold u.
func MeanExcess(xs []float64, u float64) (mean float64, count int) {
	var sum float64
	for _, x := range xs {
		if x > u {
			sum += x - u
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}
