package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pubtac/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		mean, sd float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"pair", []float64{1, 3}, 2, math.Sqrt2},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 5, math.Sqrt(32.0 / 7.0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if m := Mean(c.xs); !almostEqual(m, c.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", m, c.mean)
			}
			if s := StdDev(c.xs); !almostEqual(s, c.sd, 1e-12) {
				t.Errorf("StdDev = %v, want %v", s, c.sd)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Quantile(xs, 0.5); !almostEqual(got, 15, 1e-12) {
		t.Errorf("Quantile(0.5) = %v, want 15", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	gen := rng.New(11)
	f := func(seedRaw uint16) bool {
		n := int(seedRaw%100) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeSorted checks the flat merge the streaming reservoir fills with.
func TestMergeSorted(t *testing.T) {
	a := sortedFlat([]float64{1, 3, 3, 8})
	b := sortedFlat([]float64{2, 3, 9})
	got := mergeFlat(a, b)
	want := []float64{1, 2, 3, 3, 3, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("MergeSorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeSorted = %v, want %v", got, want)
		}
	}
	if out := mergeFlat(nil, b); len(out) != 3 {
		t.Fatalf("mergeFlat(empty, b) = %v", out)
	}
	if out := mergeFlat(a, nil); len(out) != 4 {
		t.Fatalf("mergeFlat(a, empty) = %v", out)
	}
}

func TestMeanExcess(t *testing.T) {
	xs := []float64{1, 2, 3, 10, 20}
	m, c := MeanExcess(xs, 3)
	if c != 2 || !almostEqual(m, (7+17)/2.0, 1e-12) {
		t.Fatalf("MeanExcess = %v,%v", m, c)
	}
	if _, c := MeanExcess(xs, 100); c != 0 {
		t.Fatal("expected no exceedances")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A perfectly alternating series has lag-1 autocorrelation near -1.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if r := Autocorrelation(xs, 1); r > -0.9 {
		t.Fatalf("lag-1 autocorr of alternating series = %v, want ~ -1", r)
	}
	// lag-0 is 1 by definition.
	if r := Autocorrelation(xs, 0); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("lag-0 autocorr = %v", r)
	}
	if r := Autocorrelation(xs[:1], 1); r != 0 {
		t.Fatalf("short series autocorr = %v, want 0", r)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if e.N() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Fatal("ECDF metadata wrong")
	}
	cases := []struct{ x, p float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); !almostEqual(got, c.p, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.p)
		}
		if got := e.Exceedance(c.x); !almostEqual(got, 1-c.p, 1e-12) {
			t.Errorf("Exceedance(%v) = %v, want %v", c.x, got, 1-c.p)
		}
	}
}

// TestECDFCountLEUpperBound pins CountLE at paper scale: 84,873 runs (the
// largest R_pub+tac of the paper's campaigns) on 9 and on 358 integer
// levels, the range of distinct values paper samples take, so ties run to
// thousands of runs. At every distinct value, halfway between neighbours,
// below the minimum, above the maximum and at ±Inf and NaN, CountLE must
// equal a linear count of the values not above x, and the count of a lower
// bound search followed by a walk over the ties. At NaN both read n: no
// value compares above NaN.
func TestECDFCountLEUpperBound(t *testing.T) {
	const n = 84873
	for _, levels := range []int{9, 358} {
		gen := rng.New(uint64(levels))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 40000 + 7*float64(gen.Intn(levels))
		}
		e := NewECDF(xs)
		sorted := flat(e.Sorted)
		probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), e.Min() - 1, e.Max() + 1}
		for _, p := range e.Points() {
			probes = append(probes, p.Value, p.Value+3.5)
		}
		if len(probes) != 5+2*levels {
			t.Fatalf("levels=%d: sample takes %d distinct values", levels, (len(probes)-5)/2)
		}
		for _, x := range probes {
			linear := 0
			for _, v := range xs {
				if !(v > x) {
					linear++
				}
			}
			walk := sort.SearchFloat64s(sorted, x)
			for walk < n && sorted[walk] == x {
				walk++
			}
			if got := e.CountLE(x); got != linear || got != walk {
				t.Fatalf("levels=%d: CountLE(%v) = %d, linear count %d, lower bound and walk %d",
					levels, x, got, linear, walk)
			}
		}
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	pts := e.Points()
	if len(pts) != 3 {
		t.Fatalf("Points len = %d, want 3", len(pts))
	}
	if pts[0].Value != 1 || !almostEqual(pts[0].Prob, 0.75, 1e-12) {
		t.Errorf("pts[0] = %+v", pts[0])
	}
	if pts[2].Value != 3 || pts[2].Prob != 0 {
		t.Errorf("pts[2] = %+v", pts[2])
	}
	// Monotone decreasing probability.
	for i := 1; i < len(pts); i++ {
		if pts[i].Prob > pts[i-1].Prob || pts[i].Value <= pts[i-1].Value {
			t.Fatal("ECCDF points not monotone")
		}
	}
}

func TestECDFPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewECDF(nil)
}

func TestKSStatisticIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	e := NewECDF(xs)
	if d := e.KSStatistic(NewECDF(xs)); d != 0 {
		t.Fatalf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3})
	b := NewECDF([]float64{10, 20, 30})
	if d := a.KSStatistic(b); !almostEqual(d, 1, 1e-12) {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestUpperBounds(t *testing.T) {
	lo := NewECDF([]float64{1, 2, 3, 4})
	hi := NewECDF([]float64{2, 3, 4, 5})
	if !hi.UpperBounds(lo, 0) {
		t.Fatal("shifted-up sample should upper-bound")
	}
	if lo.UpperBounds(hi, 0) {
		t.Fatal("shifted-down sample should not upper-bound")
	}
	if !lo.UpperBounds(lo, 0) {
		t.Fatal("sample should upper-bound itself")
	}
}

func TestGammaRegIdentities(t *testing.T) {
	// P(a,x) + Q(a,x) == 1
	for _, a := range []float64{0.5, 1, 2.5, 10} {
		for _, x := range []float64{0.1, 1, 5, 20} {
			p, q := GammaRegLower(a, x), GammaRegUpper(a, x)
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("P+Q != 1 at a=%v x=%v: %v", a, x, p+q)
			}
		}
	}
	// P(1,x) = 1 - exp(-x) (exponential CDF)
	for _, x := range []float64{0.5, 1, 2, 5} {
		if got, want := GammaRegLower(1, x), 1-math.Exp(-x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestChiSquareSurvivalKnown(t *testing.T) {
	// Chi-square with 2 dof is Exp(1/2): P[X > x] = exp(-x/2).
	for _, x := range []float64{0.5, 1, 4, 10} {
		if got, want := ChiSquareSurvival(x, 2), math.Exp(-x/2); !almostEqual(got, want, 1e-10) {
			t.Errorf("ChiSquareSurvival(%v,2) = %v, want %v", x, got, want)
		}
	}
	if ChiSquareSurvival(-1, 3) != 1 {
		t.Error("survival at negative x should be 1")
	}
}

func TestNormalCDFKnown(t *testing.T) {
	cases := []struct{ z, p float64 }{
		{0, 0.5}, {1.959963985, 0.975}, {-1.959963985, 0.025},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.p, 1e-6) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.p)
		}
	}
}

func TestKolmogorovSurvivalBounds(t *testing.T) {
	if KolmogorovSurvival(0) != 1 {
		t.Error("Q(0) should be 1")
	}
	if q := KolmogorovSurvival(10); q > 1e-12 {
		t.Errorf("Q(10) = %v, want ~0", q)
	}
	// Known value: Q(1.0) ~ 0.26999...
	if q := KolmogorovSurvival(1.0); !almostEqual(q, 0.270, 0.001) {
		t.Errorf("Q(1) = %v, want ~0.270", q)
	}
	// Monotone non-increasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		q := KolmogorovSurvival(l)
		if q > prev+1e-12 {
			t.Fatalf("Kolmogorov survival not monotone at %v", l)
		}
		prev = q
	}
}

func TestRunsTestIID(t *testing.T) {
	gen := rng.New(1234)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = gen.Float64()
	}
	if r := RunsTest(xs); !r.Passed(0.01) {
		t.Errorf("runs test rejected an i.i.d. sample: %+v", r)
	}
}

func TestRunsTestDetectsTrend(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	if r := RunsTest(xs); r.Passed(0.05) {
		t.Errorf("runs test failed to reject a monotone trend: %+v", r)
	}
}

func TestRunsTestDegenerate(t *testing.T) {
	if r := RunsTest([]float64{1, 1, 1}); r.PValue != 1 {
		t.Errorf("constant sample should trivially pass, got %+v", r)
	}
}

func TestLjungBoxIID(t *testing.T) {
	gen := rng.New(99)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = gen.Float64()
	}
	if r := LjungBox(xs, 20); !r.Passed(0.01) {
		t.Errorf("Ljung-Box rejected an i.i.d. sample: %+v", r)
	}
}

func TestLjungBoxDetectsAR1(t *testing.T) {
	gen := rng.New(7)
	xs := make([]float64, 2000)
	prev := 0.0
	for i := range xs {
		prev = 0.8*prev + gen.Float64()
		xs[i] = prev
	}
	if r := LjungBox(xs, 20); r.Passed(0.05) {
		t.Errorf("Ljung-Box failed to reject an AR(1) series: %+v", r)
	}
}

func TestKSTwoSampleSame(t *testing.T) {
	gen := rng.New(3)
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = gen.Float64()
		b[i] = gen.Float64()
	}
	if r := KSTwoSample(a, b); !r.Passed(0.01) {
		t.Errorf("KS rejected identical distributions: %+v", r)
	}
}

func TestKSTwoSampleDifferent(t *testing.T) {
	gen := rng.New(3)
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = gen.Float64()
		b[i] = gen.Float64() + 0.5
	}
	if r := KSTwoSample(a, b); r.Passed(0.05) {
		t.Errorf("KS failed to reject shifted distributions: %+v", r)
	}
}

func TestCheckIIDOnGoodSample(t *testing.T) {
	gen := rng.New(77)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = gen.Float64() * 100
	}
	rep := CheckIID(xs)
	if !rep.Passed(0.01) {
		t.Errorf("i.i.d. battery rejected a uniform sample: %+v", rep)
	}
}

func TestECDFQuantileAgainstSort(t *testing.T) {
	gen := rng.New(21)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = gen.Float64()
	}
	e := NewECDF(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if e.Quantile(0) != s[0] || e.Quantile(1) != s[100] {
		t.Fatal("ECDF quantile extremes disagree with sorted sample")
	}
}
