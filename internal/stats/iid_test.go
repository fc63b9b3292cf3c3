package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pubtac/internal/rng"
)

// sameResult reports bit-identity of two test results.
func sameResult(a, b TestResult) bool {
	return a.Name == b.Name && a.Statistic == b.Statistic && a.PValue == b.PValue
}

// closeResult reports agreement up to floating-point reassociation error.
func closeResult(a, b TestResult, tol float64) bool {
	relOK := func(x, y float64) bool {
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return math.Abs(x-y) <= tol*scale
	}
	return a.Name == b.Name && relOK(a.Statistic, b.Statistic) && relOK(a.PValue, b.PValue)
}

// refLjungBoxPush is the run-by-run fold that ljungBoxSums.push's
// register-blocked passes replaced, kept as their oracle: each run's lag
// products are added against a window of the previous runs that shifts by
// one run per run.
func refLjungBoxPush(l *ljungBoxSums, block []float64) {
	if len(block) == 0 {
		return
	}
	if l.n == 0 {
		l.shift = block[0]
	}
	for _, x := range block {
		y := x - l.shift
		w := len(l.window)
		for k := 1; k <= w; k++ {
			l.cross[k-1] += y * l.window[w-k]
		}
		if w == iidMaxLags {
			copy(l.window, l.window[1:])
			l.window[w-1] = y
		} else {
			l.window = append(l.window, y)
		}
		if len(l.head) < iidMaxLags {
			l.head = append(l.head, y)
		}
		l.sum += y
		l.sumSq += y * y
	}
	l.n += len(block)
}

// diffLjungBoxSums names the first field in which a and b differ, comparing
// floats by their bits, or returns "" when they are identical.
func diffLjungBoxSums(a, b *ljungBoxSums) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.n != b.n:
		return fmt.Sprintf("n (%d, %d)", a.n, b.n)
	case !same(a.shift, b.shift):
		return fmt.Sprintf("shift (%v, %v)", a.shift, b.shift)
	case !same(a.sum, b.sum):
		return fmt.Sprintf("sum (%v, %v)", a.sum, b.sum)
	case !same(a.sumSq, b.sumSq):
		return fmt.Sprintf("sumSq (%v, %v)", a.sumSq, b.sumSq)
	case !slices.EqualFunc(a.head, b.head, same):
		return fmt.Sprintf("head (%v, %v)", a.head, b.head)
	case !slices.EqualFunc(a.window, b.window, same):
		return fmt.Sprintf("window (%v, %v)", a.window, b.window)
	}
	for k := range a.cross {
		if !same(a.cross[k], b.cross[k]) {
			return fmt.Sprintf("cross[%d] (%v, %v)", k, a.cross[k], b.cross[k])
		}
	}
	return ""
}

// trivialPass asserts a degenerate-input result: PValue 1, no panic.
func trivialPass(t *testing.T, label string, r TestResult) {
	t.Helper()
	if r.PValue != 1 {
		t.Errorf("%s: PValue = %v, want the degenerate pass 1 (%+v)", label, r.PValue, r)
	}
}

// TestBatteryDegenerateInputs covers the inputs that used to panic (empty
// sample: Median -> Quantile panic) or could misbehave (all values tied
// with the median): every check must return the degenerate pass, for both
// the one-shot battery and the full summary's.
func TestBatteryDegenerateInputs(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"single", []float64{5}},
		{"pair", []float64{5, 7}},
		{"len3", []float64{3, 1, 2}},
		{"constant", func() []float64 {
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := CheckIID(c.xs) // must not panic
			if len(c.xs) < 4 {
				trivialPass(t, "one-shot runs", rep.Runs)
				trivialPass(t, "one-shot ljung-box", rep.LjungBox)
				trivialPass(t, "one-shot identical", rep.Identical)
			}
			if c.name == "constant" {
				// Ties with the median discard every value: trivial pass
				// across the battery, never a panic or a spurious reject.
				trivialPass(t, "one-shot runs", rep.Runs)
				trivialPass(t, "one-shot ljung-box", rep.LjungBox)
				trivialPass(t, "one-shot identical", rep.Identical)
			}
			if !rep.Passed(0.05) {
				t.Errorf("degenerate battery rejected: %+v", rep)
			}

			sum := NewFullSummary(true)
			sum.Push(c.xs)
			got := sum.IID() // must not panic either
			if !sameResult(got.Runs, rep.Runs) || !sameResult(got.Identical, rep.Identical) {
				t.Errorf("full-summary degenerate report diverges: %+v vs %+v", got, rep)
			}
			if !closeResult(got.LjungBox, rep.LjungBox, 1e-9) {
				t.Errorf("full-summary ljung-box diverges: %+v vs %+v", got.LjungBox, rep.LjungBox)
			}
		})
	}
}

func TestRunsTestEmptyDoesNotPanic(t *testing.T) {
	trivialPass(t, "RunsTest(nil)", RunsTest(nil))
	trivialPass(t, "RunsTest(empty)", RunsTest([]float64{}))
}

func TestRunsTestMedianMatchesRunsTest(t *testing.T) {
	gen := rng.New(5)
	for _, n := range []int{2, 3, 17, 500} {
		xs := make([]float64, n)
		for i := range xs {
			// Coarse grid forces ties with the median.
			xs[i] = math.Floor(gen.Float64() * 8)
		}
		if a, b := RunsTest(xs), RunsTestMedian(xs, Median(xs)); !sameResult(a, b) {
			t.Fatalf("n=%d: RunsTest %+v != RunsTestMedian %+v", n, a, b)
		}
	}
}

func TestAutocorrelationsToMatchesAutocorrelation(t *testing.T) {
	gen := rng.New(8)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = gen.Float64() * 50
	}
	rs := AutocorrelationsTo(xs, 25)
	for k := 1; k <= 25; k++ {
		if want := Autocorrelation(xs, k); rs[k-1] != want {
			t.Fatalf("lag %d: %v != Autocorrelation's %v", k, rs[k-1], want)
		}
	}
	// Lags beyond the series length are zero, as in Autocorrelation.
	rs = AutocorrelationsTo(xs[:4], 10)
	for k := 1; k <= 10; k++ {
		if want := Autocorrelation(xs[:4], k); rs[k-1] != want {
			t.Fatalf("short series lag %d: %v != %v", k, rs[k-1], want)
		}
	}
	if AutocorrelationsTo(xs, 0) != nil {
		t.Fatal("maxLag 0 should return nil")
	}
	if rs := AutocorrelationsTo(nil, 5); len(rs) != 5 {
		t.Fatalf("empty series: len %d, want 5 zeros", len(rs))
	}
}

// TestIIDStateMatchesCheckIID is the equivalence oracle of the iid pair,
// the full summary's one-pass battery (fullIID) against the one-shot
// CheckIID: pushed in collectBlock-sized (and deliberately ragged) chunks,
// the summary must reproduce the one-shot report — runs test and two-half
// KS bit-identically, Ljung-Box to reassociation error — on randomized
// samples of both continuous and integer-valued (tie-heavy, moving-median)
// shapes.
func TestIIDStateMatchesCheckIID(t *testing.T) {
	const collectBlock = 64 // mbpta's work-stealing block: 8 × proc.BatchK
	gen := rng.New(4242)
	shapes := []struct {
		name string
		draw func() float64
	}{
		{"continuous", func() float64 { return gen.Float64() * 1000 }},
		{"integer", func() float64 { return math.Floor(gen.Float64()*40) + 100 }},
		{"ar1-ish", func() float64 { return math.Floor(gen.Float64()*8) * math.Floor(gen.Float64()*8) }},
	}
	sizes := []int{0, 1, 3, 4, 7, 50, 257, 1000, 3000}
	for _, shape := range shapes {
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.draw()
			}
			want := CheckIID(xs)

			for _, chunk := range []int{collectBlock, 1, 7, n + 1} {
				sum := NewFullSummary(true)
				for lo := 0; lo < n; lo += chunk {
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					sum.Push(xs[lo:hi])
					// Interleaved reports across median moves: results
					// must not depend on how often the battery was
					// consulted.
					if lo%(3*chunk) == 0 {
						sum.IID()
					}
				}
				got := sum.IID()
				label := shape.name
				if !sameResult(got.Runs, want.Runs) {
					t.Fatalf("%s n=%d chunk=%d: runs %+v != one-shot %+v", label, n, chunk, got.Runs, want.Runs)
				}
				if !sameResult(got.Identical, want.Identical) {
					t.Fatalf("%s n=%d chunk=%d: identical %+v != one-shot %+v", label, n, chunk, got.Identical, want.Identical)
				}
				if !closeResult(got.LjungBox, want.LjungBox, 1e-8) {
					t.Fatalf("%s n=%d chunk=%d: ljung-box %+v != one-shot %+v", label, n, chunk, got.LjungBox, want.LjungBox)
				}
				if sum.N() != n {
					t.Fatalf("N = %d, want %d", sum.N(), n)
				}
			}
		}
	}
}

// TestIIDStateOutlierAnchor: the Ljung-Box moments are anchored to the
// first pushed value; when that value is a gross outlier the expanded sums
// cancel hardest (the worst case is bounded by ~n·eps because the anchor
// itself inflates the variance). The report must still track the one-shot
// reference within the documented tolerance.
func TestIIDStateOutlierAnchor(t *testing.T) {
	gen := rng.New(7)
	xs := make([]float64, 1000)
	xs[0] = 1e9
	for i := 1; i < len(xs); i++ {
		xs[i] = math.Floor(gen.Float64() * 4)
	}
	want := CheckIID(xs)
	sum := NewFullSummary(true)
	sum.Push(xs)
	got := sum.IID()
	if !sameResult(got.Runs, want.Runs) || !sameResult(got.Identical, want.Identical) {
		t.Fatalf("outlier anchor diverged: %+v vs %+v", got, want)
	}
	if !closeResult(got.LjungBox, want.LjungBox, 1e-8) {
		t.Fatalf("outlier anchor ljung-box diverged: %+v vs %+v", got.LjungBox, want.LjungBox)
	}
}

// TestIIDStateChunkingInvariance: two full summaries fed the same series
// through different chunkings produce bit-identical reports (the battery
// is a function of the concatenated sample).
func TestIIDStateChunkingInvariance(t *testing.T) {
	gen := rng.New(99)
	xs := make([]float64, 2048)
	for i := range xs {
		xs[i] = gen.Float64() * 100
	}
	a, b := NewFullSummary(true), NewFullSummary(true)
	a.Push(xs)
	for lo := 0; lo < len(xs); lo += 129 {
		hi := lo + 129
		if hi > len(xs) {
			hi = len(xs)
		}
		b.Push(xs[lo:hi])
	}
	ra, rb := a.IID(), b.IID()
	if !sameResult(ra.Runs, rb.Runs) || !sameResult(ra.Identical, rb.Identical) ||
		!sameResult(ra.LjungBox, rb.LjungBox) {
		t.Fatalf("chunking changed the report: %+v vs %+v", ra, rb)
	}
}

func TestIIDStatePassesOnIIDSample(t *testing.T) {
	gen := rng.New(123)
	sum := NewFullSummary(true)
	blk := make([]float64, 500)
	for round := 0; round < 8; round++ {
		for i := range blk {
			blk[i] = gen.Float64() * 100
		}
		sum.Push(blk)
	}
	if rep := sum.IID(); !rep.Passed(0.01) {
		t.Fatalf("full-summary battery rejected an i.i.d. sample: %+v", rep)
	}
}
