package stats

import "math"

// Hypothesis tests used by MBPTA to validate the statistical assumptions on
// execution-time samples before applying extreme value theory:
//
//   - independence: Wald-Wolfowitz runs test and Ljung-Box portmanteau test;
//   - identical distribution: two-sample Kolmogorov-Smirnov test between the
//     two halves of the sample.
//
// All tests return a TestResult with the statistic and an asymptotic
// p-value; the caller compares the p-value against a significance level
// (MBPTA conventionally uses 0.05).

// TestResult carries the outcome of a hypothesis test.
type TestResult struct {
	Name      string  // test identifier
	Statistic float64 // test statistic value
	PValue    float64 // asymptotic p-value
}

// Passed reports whether the null hypothesis is NOT rejected at significance
// level alpha (i.e. the sample is compatible with the assumption tested).
func (r TestResult) Passed(alpha float64) bool { return r.PValue >= alpha }

// RunsTest performs the Wald-Wolfowitz runs test for randomness on xs,
// dichotomizing the series around its median. Values equal to the median are
// discarded, per the standard formulation. The null hypothesis is that the
// sequence is random (independent). Degenerate inputs — an empty sample, or
// one whose every value ties with the median — trivially pass with PValue 1,
// consistent with LjungBox and IdenticalDistribution: the battery never
// panics.
func RunsTest(xs []float64) TestResult {
	if len(xs) == 0 {
		return TestResult{Name: "runs", Statistic: 0, PValue: 1}
	}
	return RunsTestMedian(xs, Median(xs))
}

// RunsTestMedian is RunsTest with the dichotomization threshold supplied by
// the caller. Holders of a sorted view pass its O(log d) median instead of
// paying RunsTest's internal copy+sort of the whole sample; the full
// summary's battery goes further and tallies its codes through a per-code
// sign table at that median (fullIID).
func RunsTestMedian(xs []float64, med float64) TestResult {
	var r signRuns
	r.scan(xs, med)
	return r.result()
}

// signRuns is the Wald-Wolfowitz tally of a run-ordered scan dichotomized at
// a median: the values above (n1) and below (n2) it, the number of sign runs,
// and the last sign seen, so a scan can resume block by block. Values tied
// with the median are discarded, per the standard formulation.
type signRuns struct {
	n1, n2, runs int
	last         int8
}

func (r *signRuns) scan(xs []float64, med float64) {
	for _, x := range xs {
		var sign int8
		switch {
		case x > med:
			sign = 1
			r.n1++
		case x < med:
			sign = -1
			r.n2++
		default:
			continue
		}
		if sign != r.last {
			r.runs++
		}
		r.last = sign
	}
}

// result turns the tally into the z statistic and its normal-approximation
// p-value.
func (r signRuns) result() TestResult {
	if r.n1+r.n2 < 2 || r.n1 == 0 || r.n2 == 0 {
		return TestResult{Name: "runs", Statistic: 0, PValue: 1}
	}
	f1, f2 := float64(r.n1), float64(r.n2)
	mean := 2*f1*f2/(f1+f2) + 1
	variance := 2 * f1 * f2 * (2*f1*f2 - f1 - f2) /
		((f1 + f2) * (f1 + f2) * (f1 + f2 - 1))
	if variance <= 0 {
		return TestResult{Name: "runs", Statistic: 0, PValue: 1}
	}
	z := (float64(r.runs) - mean) / math.Sqrt(variance)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return TestResult{Name: "runs", Statistic: z, PValue: p}
}

// LjungBox performs the Ljung-Box portmanteau test on xs with the given
// number of lags. The null hypothesis is absence of autocorrelation up to
// that lag. The mean and the autocorrelation denominator are computed once
// and shared across lags (see AutocorrelationsTo).
func LjungBox(xs []float64, lags int) TestResult {
	n := len(xs)
	if lags < 1 || n <= lags+1 {
		return TestResult{Name: "ljung-box", Statistic: 0, PValue: 1}
	}
	return ljungBoxFromAutocorr(AutocorrelationsTo(xs, lags), n)
}

// ljungBoxFromAutocorr assembles the Ljung-Box statistic and its p-value
// from the lag-1..len(rs) autocorrelations of an n-value series; the
// one-shot test and the summaries' batteries share it so they can never
// drift apart on the pooling formula.
func ljungBoxFromAutocorr(rs []float64, n int) TestResult {
	var q float64
	for k, r := range rs {
		q += r * r / float64(n-(k+1))
	}
	q *= float64(n) * (float64(n) + 2)
	return TestResult{Name: "ljung-box", Statistic: q, PValue: ChiSquareSurvival(q, len(rs))}
}

// KSTwoSample performs the two-sample Kolmogorov-Smirnov test between a and
// b. The null hypothesis is that both samples come from the same
// distribution.
func KSTwoSample(a, b []float64) TestResult {
	if len(a) == 0 || len(b) == 0 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	return ksResult(NewECDF(a).KSStatistic(NewECDF(b)), len(a), len(b))
}

// ksResult turns the KS distance d between samples of n1 and n2 values into
// the test result with its asymptotic p-value.
func ksResult(d float64, n1, n2 int) TestResult {
	f1, f2 := float64(n1), float64(n2)
	ne := f1 * f2 / (f1 + f2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Name: "ks-2sample", Statistic: d, PValue: KolmogorovSurvival(lambda)}
}

// IdenticalDistribution splits xs in two halves and applies the two-sample
// KS test between them, the standard MBPTA check for identically distributed
// measurements.
func IdenticalDistribution(xs []float64) TestResult {
	if len(xs) < 4 {
		return TestResult{Name: "ks-2sample", Statistic: 0, PValue: 1}
	}
	half := len(xs) / 2
	return KSTwoSample(xs[:half], xs[half:])
}

// IIDReport aggregates the three standard MBPTA admissibility checks.
type IIDReport struct {
	Runs      TestResult
	LjungBox  TestResult
	Identical TestResult
}

// CheckIID runs the full i.i.d. battery on xs with the conventional 20 lags
// for Ljung-Box (or n/4 for short samples). It never panics: degenerate
// samples (empty, shorter than the tests need, constant) trivially pass
// every check with PValue 1.
//
//pubtac:reference iid
func CheckIID(xs []float64) IIDReport {
	return IIDReport{
		Runs:      RunsTest(xs),
		LjungBox:  LjungBox(xs, iidLags(len(xs))),
		Identical: IdenticalDistribution(xs),
	}
}

// iidLags is the battery's Ljung-Box lag rule: 20 lags, n/4 for short
// samples.
func iidLags(n int) int {
	if n/4 < iidMaxLags {
		return n / 4
	}
	return iidMaxLags
}

// Passed reports whether all three checks pass at significance alpha.
func (r IIDReport) Passed(alpha float64) bool {
	return r.Runs.Passed(alpha) && r.LjungBox.Passed(alpha) && r.Identical.Passed(alpha)
}
