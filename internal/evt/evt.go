// Package evt implements the extreme value theory machinery used by MBPTA
// to turn a sample of execution times into a pWCET curve.
//
// Two fits are provided, matching the practice in the MBPTA literature the
// paper builds on:
//
//   - ExpTail: a peaks-over-threshold fit with an exponential excess
//     distribution. This is the MBPTA-CV approach (Abella et al., TODAES
//     2017): exponential tails are the most stable and always
//     over-approximating choice for worst-case execution time modelling.
//   - Gumbel: a classic block-maxima fit of the Gumbel distribution, used as
//     a cross-check.
//
// A fitted model satisfies the Curve interface: ValueAt(p) returns the
// execution time whose per-run exceedance probability is p (the x coordinate
// of the pWCET curve at height p), and ExceedanceOf(x) is its inverse.
package evt

import (
	"errors"
	"fmt"
	"math"

	"pubtac/internal/stats"
)

// Curve is a pWCET curve: a survival function over execution time.
type Curve interface {
	// ValueAt returns the execution time bound at per-run exceedance
	// probability p (0 < p < 1), i.e. the pWCET estimate at p.
	ValueAt(p float64) float64
	// ExceedanceOf returns the modelled probability that a single run
	// exceeds execution time x.
	ExceedanceOf(x float64) float64
}

// ErrSampleTooSmall is returned when a fit does not have enough data.
var ErrSampleTooSmall = errors.New("evt: sample too small to fit a tail")

// euler is the Euler-Mascheroni constant (Gumbel moment fitting).
const euler = 0.5772156649015329

// ExpTail is an exponential peaks-over-threshold pWCET model:
//
//	P[X > x] = TailFrac * exp(-Rate*(x-U))   for x >= U.
//
// U is the threshold, Rate the exponential rate fitted to the excesses, and
// TailFrac the empirical fraction of the sample above U.
type ExpTail struct {
	U        float64 // threshold (cycles)
	Rate     float64 // exponential rate of the excess distribution
	TailFrac float64 // fraction of sample above U
	N        int     // sample size used for the fit
	Excesses int     // number of exceedances above U
}

// fitExpTailUpper fits an exponential tail above the threshold that leaves
// tailCount exceedances, reading it by index off top: the largest values
// of a sample of total size n, ascending and flat, at least the top
// tailCount+1 of them (a sorted view's Top). The whole sorted sample and a
// top-K reservoir covering the window hold the same order statistics, so
// the fit is bit-identical on either. It returns ErrSampleTooSmall when
// fewer than 10 exceedances are available.
func fitExpTailUpper(top []float64, n, tailCount int) (*ExpTail, error) {
	if n < 20 || tailCount < 10 {
		return nil, ErrSampleTooSmall
	}
	if tailCount >= n {
		tailCount = n / 2
		if tailCount < 10 {
			return nil, ErrSampleTooSmall
		}
	}
	m := len(top)
	if tailCount+1 > m {
		return nil, ErrSampleTooSmall
	}
	u := top[m-tailCount-1] // threshold: leaves exactly tailCount order statistics above
	// Excesses of the top tailCount order statistics over u, smallest
	// first. Ties with u contribute zero excess; this keeps the fit defined
	// for degenerate (low-variability) samples.
	var sum float64
	for _, x := range top[m-tailCount:] {
		sum += x - u
	}
	meanExcess := sum / float64(tailCount)
	count := tailCount
	if meanExcess <= 0 {
		// Degenerate tail (all maxima equal). Model it as a point mass just
		// above u with a very steep rate so that ValueAt stays finite and
		// close to the observed maximum.
		meanExcess = math.Max(u*1e-12, 1e-9)
	}
	return &ExpTail{
		U:        u,
		Rate:     1 / meanExcess,
		TailFrac: float64(count) / float64(n),
		N:        n,
		Excesses: count,
	}, nil
}

// ValueAt returns the pWCET estimate at per-run exceedance probability p.
func (e *ExpTail) ValueAt(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= e.TailFrac {
		// Query inside the empirical body; clamp to the threshold.
		return e.U
	}
	return e.U + math.Log(e.TailFrac/p)/e.Rate
}

// ExceedanceOf returns the modelled per-run exceedance probability of x.
func (e *ExpTail) ExceedanceOf(x float64) float64 {
	if x <= e.U {
		return e.TailFrac
	}
	return e.TailFrac * math.Exp(-e.Rate*(x-e.U))
}

// String summarizes the fit.
func (e *ExpTail) String() string {
	return fmt.Sprintf("ExpTail{u=%.1f rate=%.3g tail=%d/%d}", e.U, e.Rate, e.Excesses, e.N)
}

// Gumbel is a block-maxima Gumbel pWCET model with location Loc, scale
// Scale, fitted on maxima of blocks of Block consecutive runs.
type Gumbel struct {
	Loc   float64
	Scale float64
	Block int // block size used to form maxima
	N     int // number of block maxima
}

// FitGumbel fits a Gumbel distribution by the method of moments to maxima of
// consecutive blocks of size block. It returns ErrSampleTooSmall when fewer
// than 10 block maxima are available.
func FitGumbel(sample []float64, block int) (*Gumbel, error) {
	if block < 1 {
		block = 1
	}
	nb := len(sample) / block
	if nb < 10 {
		return nil, ErrSampleTooSmall
	}
	maxima := make([]float64, 0, nb)
	for b := 0; b < nb; b++ {
		blockMax := sample[b*block]
		for i := b*block + 1; i < (b+1)*block; i++ {
			if sample[i] > blockMax {
				blockMax = sample[i]
			}
		}
		maxima = append(maxima, blockMax)
	}
	sd := stats.StdDev(maxima)
	if sd == 0 {
		sd = math.Max(stats.Mean(maxima)*1e-12, 1e-9)
	}
	scale := sd * math.Sqrt(6) / math.Pi
	loc := stats.Mean(maxima) - euler*scale
	return &Gumbel{Loc: loc, Scale: scale, Block: block, N: nb}, nil
}

// blockExceedance converts a per-run exceedance probability into the
// per-block exceedance probability 1-(1-p)^Block.
func (g *Gumbel) blockExceedance(p float64) float64 {
	return 1 - math.Pow(1-p, float64(g.Block))
}

// ValueAt returns the pWCET estimate at per-run exceedance probability p.
func (g *Gumbel) ValueAt(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	pb := g.blockExceedance(p)
	if pb >= 1 {
		pb = 1 - 1e-16
	}
	// Gumbel quantile at cumulative probability 1-pb.
	return g.Loc - g.Scale*math.Log(-math.Log(1-pb))
}

// ExceedanceOf returns the modelled per-run exceedance probability of x.
func (g *Gumbel) ExceedanceOf(x float64) float64 {
	// Per-block survival.
	sb := 1 - math.Exp(-math.Exp(-(x-g.Loc)/g.Scale))
	// Convert to per-run: sb = 1-(1-p)^Block.
	return 1 - math.Pow(1-sb, 1/float64(g.Block))
}

// String summarizes the fit.
func (g *Gumbel) String() string {
	return fmt.Sprintf("Gumbel{loc=%.1f scale=%.2f block=%d n=%d}", g.Loc, g.Scale, g.Block, g.N)
}

// FitExpTailAutoSummary fits exponential tails over a range of candidate
// tail sizes on a stats.SampleView and selects the threshold by the
// MBPTA-CV exponentiality criterion.
//
// Policy: the SMALLEST candidate tail whose CV test accepts exponentiality
// wins; when no candidate is accepted, the candidate with CV closest to 1
// is used. Scanning from the highest thresholds downward keeps the fit
// window inside the top mixture component of knee-shaped distributions
// (conflictive-placement clusters) instead of straddling the knee, which
// wildly inflates the extrapolation. Coverage of deeper, rarer events is
// the responsibility of the campaign size (TAC), not of the fit — and the
// composite curve already upper-bounds everything observed.
// Candidates grow geometrically from minTail to maxTail.
//
// The scan reads only the view's exact upper tail (TailSorted), so it works
// identically on the full sample's view and on a streaming view whose
// reservoir covers the search window: the two are bit-identical whenever
// maxTail+1 observations fit the reservoir. Otherwise the window is clamped
// to the reservoir (a smaller, still-valid scan — the documented
// budget/accuracy trade of the streaming arm). Each step reads the tail
// flat and by index through Top, off the view's flat copy of its largest
// values; the first step past that copy materializes the rest of the
// window, once.
func FitExpTailAutoSummary(v stats.SampleView, minTail, maxTail int) (*ExpTail, CVTest, error) {
	n := v.N()
	tail := v.TailSorted()
	if maxTail > n/2 {
		maxTail = n / 2
	}
	if minTail < 10 {
		minTail = 10
	}
	if maxTail < minTail {
		maxTail = minTail
	}
	if maxTail > tail.Len()-1 {
		maxTail = tail.Len() - 1
	}
	if maxTail < minTail {
		minTail = maxTail
	}
	var bestFit *ExpTail
	var bestCV CVTest
	bestScore := math.Inf(1)
	var top []float64
	for tc := minTail; ; tc = tc*3/2 + 1 {
		if tc > maxTail {
			tc = maxTail
		}
		if len(top) < tc+1 {
			// The first read is the view's flat copy of its largest
			// values; a step past it materializes the rest of the window
			// at once.
			k := tc + 1
			if top != nil {
				k = maxTail + 1
			}
			top = tail.Top(k)
		}
		fit, err := fitExpTailUpper(top, n, tc)
		if err == nil {
			cv := checkCVUpper(top, n, tc)
			if cv.Accepted() {
				// Smallest accepted threshold: done.
				return fit, cv, nil
			}
			if score := math.Abs(cv.CV - 1); score < bestScore {
				bestScore, bestFit, bestCV = score, fit, cv
			}
		}
		if tc >= maxTail {
			break
		}
	}
	if bestFit == nil {
		return nil, CVTest{}, ErrSampleTooSmall
	}
	return bestFit, bestCV, nil
}

// CVTest is the coefficient-of-variation exponentiality check of MBPTA-CV:
// for an exponential tail, the CV of the excesses over a high threshold is 1.
// The test computes the residual CV over the top tailCount excesses and
// checks it against the asymptotic confidence band 1 +/- z/sqrt(n).
type CVTest struct {
	CV     float64 // residual coefficient of variation of the excesses
	Lo, Hi float64 // confidence band at the chosen level
	NTail  int     // excess count
}

// Accepted reports whether the tail is compatible with an exponential model.
func (c CVTest) Accepted() bool { return c.CV >= c.Lo && c.CV <= c.Hi }

// checkCVUpper runs the CV exponentiality test on the top tailCount values
// of a sample of total size n, with a 99% confidence band (z=2.5758),
// reading them by index off top: the largest values, ascending and flat,
// at least the top tailCount+1 of them or the whole exact tail. The excess
// moments are accumulated largest-first, so the whole sorted sample and a
// reservoir covering the window yield a bit-identical test.
func checkCVUpper(top []float64, n, tailCount int) CVTest {
	k := tailCount + 1
	if k > n {
		k = n
	}
	if k < 3 {
		return CVTest{CV: 1, Lo: 0, Hi: 2, NTail: k}
	}
	if k > len(top) {
		k = len(top)
		if k < 3 {
			return CVTest{CV: 1, Lo: 0, Hi: 2, NTail: k}
		}
	}
	last := len(top) - 1
	u := top[last-k+1]
	m := k - 1 // excesses: the k-1 order statistics above the k-th largest
	var sum float64
	for i := last; i > last-m; i-- {
		sum += top[i] - u
	}
	mean := sum / float64(m)
	var cv float64
	if mean != 0 {
		var ss float64
		for i := last; i > last-m; i-- {
			d := (top[i] - u) - mean
			ss += d * d
		}
		cv = math.Sqrt(ss/float64(m-1)) / mean
	}
	const z = 2.5758293035489004 // 99% two-sided normal quantile
	return CVTest{CV: cv, Lo: 1 - z/math.Sqrt(float64(m)), Hi: 1 + z/math.Sqrt(float64(m)), NTail: m}
}
