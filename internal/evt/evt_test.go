package evt

import (
	"math"
	"testing"

	"pubtac/internal/rng"
	"pubtac/internal/stats"
)

// expSample draws n values from an exponential distribution with the given
// rate, shifted by loc.
func expSample(n int, rate, loc float64, seed uint64) []float64 {
	gen := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		u := gen.Float64()
		if u == 0 {
			u = 1e-18
		}
		xs[i] = loc - math.Log(u)/rate
	}
	return xs
}

// fitExpTail fits the exponential tail that leaves tailCount exceedances
// to an unsorted sample, through the kernel FitExpTailAutoSummary scans with.
func fitExpTail(sample []float64, tailCount int) (*ExpTail, error) {
	return fitExpTailUpper(flatSorted(sample), len(sample), tailCount)
}

// checkCV runs the CV test on the top tailCount values of an unsorted
// sample, through the kernel FitExpTailAutoSummary scans with.
func checkCV(sample []float64, tailCount int) CVTest {
	return checkCVUpper(flatSorted(sample), len(sample), tailCount)
}

// flatSorted returns the whole sample ascending and flat, read through a
// sorted view's Top.
func flatSorted(sample []float64) []float64 {
	s := stats.SortedCopy(sample)
	return s.Top(s.Len())
}

func TestFitExpTailRecoversRate(t *testing.T) {
	xs := expSample(50000, 0.01, 1000, 42)
	fit, err := fitExpTail(xs, 500)
	if err != nil {
		t.Fatal(err)
	}
	// The excess distribution of an exponential above any threshold is the
	// same exponential (memorylessness), so Rate should be ~0.01.
	if fit.Rate < 0.008 || fit.Rate > 0.012 {
		t.Fatalf("fitted rate = %v, want ~0.01", fit.Rate)
	}
}

func TestExpTailValueExceedanceRoundTrip(t *testing.T) {
	xs := expSample(20000, 0.05, 500, 7)
	fit, err := fitExpTail(xs, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1e-3, 1e-6, 1e-9, 1e-12} {
		x := fit.ValueAt(p)
		back := fit.ExceedanceOf(x)
		if math.Abs(back-p)/p > 1e-9 {
			t.Fatalf("round trip at p=%v: got %v", p, back)
		}
	}
}

func TestExpTailMonotone(t *testing.T) {
	xs := expSample(20000, 0.05, 500, 8)
	fit, err := fitExpTail(xs, 200)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-14} {
		v := fit.ValueAt(p)
		if v <= prev {
			t.Fatalf("pWCET not increasing as p decreases: %v then %v", prev, v)
		}
		prev = v
	}
	if !math.IsInf(fit.ValueAt(0), 1) {
		t.Fatal("ValueAt(0) should be +Inf")
	}
}

func TestExpTailUpperBoundsEmpirical(t *testing.T) {
	// The fitted tail at the empirical max's exceedance level should be at
	// or above the observed maximum most of the time for exponential data.
	xs := expSample(50000, 0.01, 0, 11)
	fit, err := fitExpTail(xs, 500)
	if err != nil {
		t.Fatal(err)
	}
	maxObs := xs[0]
	for _, x := range xs {
		if x > maxObs {
			maxObs = x
		}
	}
	// pWCET at a 100x smaller probability than 1/n must exceed the max.
	if v := fit.ValueAt(1.0 / float64(len(xs)) / 100); v < maxObs {
		t.Fatalf("pWCET %v below observed max %v", v, maxObs)
	}
}

func TestFitExpTailErrors(t *testing.T) {
	if _, err := fitExpTail([]float64{1, 2, 3}, 50); err == nil {
		t.Fatal("expected error on tiny sample")
	}
	if _, err := fitExpTail(expSample(100, 1, 0, 1), 5); err == nil {
		t.Fatal("expected error on tiny tail")
	}
}

func TestFitExpTailDegenerateSample(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 100 // constant
	}
	fit, err := fitExpTail(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	v := fit.ValueAt(1e-12)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("degenerate fit produced %v", v)
	}
	if v < 100 || v > 101 {
		t.Fatalf("degenerate fit pWCET = %v, want ~100", v)
	}
}

func TestFitGumbelRecoversParams(t *testing.T) {
	// Draw Gumbel(loc=1000, scale=50) directly.
	gen := rng.New(3)
	xs := make([]float64, 20000)
	for i := range xs {
		u := gen.Float64()
		if u == 0 {
			u = 1e-18
		}
		xs[i] = 1000 - 50*math.Log(-math.Log(u))
	}
	fit, err := FitGumbel(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Loc-1000) > 10 {
		t.Fatalf("loc = %v, want ~1000", fit.Loc)
	}
	if math.Abs(fit.Scale-50) > 5 {
		t.Fatalf("scale = %v, want ~50", fit.Scale)
	}
}

func TestGumbelRoundTrip(t *testing.T) {
	g := &Gumbel{Loc: 2000, Scale: 100, Block: 20, N: 100}
	for _, p := range []float64{1e-3, 1e-6, 1e-9} {
		x := g.ValueAt(p)
		back := g.ExceedanceOf(x)
		if math.Abs(back-p)/p > 1e-6 {
			t.Fatalf("round trip at p=%v: got %v", p, back)
		}
	}
}

func TestGumbelBlockConsistency(t *testing.T) {
	// The same underlying model queried through different block sizes must
	// give identical per-run answers when parameters are converted
	// consistently; here we just check monotonicity in p and block.
	g := &Gumbel{Loc: 2000, Scale: 100, Block: 10, N: 100}
	if g.ValueAt(1e-9) <= g.ValueAt(1e-6) {
		t.Fatal("Gumbel pWCET not monotone in p")
	}
}

func TestFitGumbelErrors(t *testing.T) {
	if _, err := FitGumbel(expSample(50, 1, 0, 9), 10); err == nil {
		t.Fatal("expected error: only 5 block maxima")
	}
}

func TestCheckCVExponential(t *testing.T) {
	xs := expSample(50000, 0.02, 300, 21)
	cv := checkCV(xs, 500)
	if !cv.Accepted() {
		t.Fatalf("CV test rejected exponential data: %+v", cv)
	}
	if math.Abs(cv.CV-1) > 0.2 {
		t.Fatalf("CV = %v, want ~1", cv.CV)
	}
}

func TestCheckCVUniformTail(t *testing.T) {
	// A bounded (uniform) distribution has a light tail: CV of the top
	// excesses is well below 1.
	gen := rng.New(5)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = gen.Float64() * 1000
	}
	cv := checkCV(xs, 1000)
	if cv.CV > 0.9 {
		t.Fatalf("CV = %v for uniform tail, want < 0.9", cv.CV)
	}
}

func TestCheckCVTinySample(t *testing.T) {
	cv := checkCV([]float64{1, 2}, 10)
	if !cv.Accepted() {
		t.Fatal("tiny sample should be vacuously accepted")
	}
}

func TestExpTailVsGumbelAgreeOnExponentialData(t *testing.T) {
	// Both models fitted to the same heavy sample should give pWCETs within
	// a reasonable factor at p=1e-9 (they are different approximations).
	xs := expSample(100000, 0.01, 1000, 31)
	et, err := fitExpTail(xs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := FitGumbel(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	a, b := et.ValueAt(1e-9), gb.ValueAt(1e-9)
	if ratio := a / b; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("ExpTail=%v Gumbel=%v disagree by %vx", a, b, ratio)
	}
}
