package mbpta

import (
	"context"
	"math"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

// loopTrace is a small program-like trace: a working set of w lines
// traversed n times, generating layout-dependent variability.
func loopTrace(w, n int) trace.Trace {
	letters := ""
	for i := 0; i < w; i++ {
		letters += string(rune('A' + i))
	}
	return trace.Repeat(trace.FromLetters(letters, 32), n)
}

func TestCollectMatchesSequential(t *testing.T) {
	tr := loopTrace(8, 50)
	m := proc.DefaultModel()
	seq := Collect(tr, m, 200, 42, 1)
	par := Collect(tr, m, 200, 42, 4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("run %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

func TestCollectSizes(t *testing.T) {
	tr := loopTrace(4, 10)
	m := proc.DefaultModel()
	if got := Collect(tr, m, 0, 1, 0); got != nil {
		t.Fatal("n=0 should return nil")
	}
	if got := Collect(tr, m, 7, 1, 16); len(got) != 7 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestNewEstimateAndPWCET(t *testing.T) {
	tr := loopTrace(10, 100)
	sample := Collect(tr, proc.DefaultModel(), 3000, 7, 0)
	est, err := NewEstimate(sample, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxObs := stats.Max(sample)
	p6 := est.PWCET(1e-6)
	p12 := est.PWCET(1e-12)
	if p12 < p6 {
		t.Fatalf("pWCET not monotone: %v @1e-6, %v @1e-12", p6, p12)
	}
	if p12 < maxObs {
		t.Fatalf("pWCET@1e-12 (%v) below observed max (%v)", p12, maxObs)
	}
	if est.Runs() != 3000 {
		t.Fatalf("Runs = %d", est.Runs())
	}
}

func TestEstimateAdmissible(t *testing.T) {
	// Random-platform campaigns are i.i.d. by construction (independent
	// seeds): the battery must pass.
	tr := loopTrace(10, 100)
	sample := Collect(tr, proc.DefaultModel(), 2000, 9, 0)
	est, err := NewEstimate(sample, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !est.Admissible(0.01) {
		t.Fatalf("iid battery rejected a randomized campaign: %+v", est.IID)
	}
}

func TestNewEstimateTooSmall(t *testing.T) {
	if _, err := NewEstimate([]float64{1, 2, 3}, DefaultConfig()); err == nil {
		t.Fatal("expected error on tiny sample")
	}
}

func TestConvergeDeterministicAndStable(t *testing.T) {
	tr := loopTrace(8, 60)
	m := proc.DefaultModel()
	cfg := DefaultConfig()
	cfg.InitialRuns = 300
	cfg.Increment = 300
	cfg.MaxRuns = 20000
	c1, err := NewCampaign(tr, m).ConvergeCtx(context.Background(), cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCampaign(tr, m).ConvergeCtx(context.Background(), cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Runs != c2.Runs {
		t.Fatalf("convergence not deterministic: %d vs %d", c1.Runs, c2.Runs)
	}
	if !c1.Converged {
		t.Fatalf("did not converge within %d runs", cfg.MaxRuns)
	}
	if c1.Runs < cfg.InitialRuns {
		t.Fatalf("Runs = %d < InitialRuns", c1.Runs)
	}
	if c1.Estimate == nil || len(c1.Estimate.Sample) != c1.Runs {
		t.Fatal("estimate/sample inconsistent")
	}
}

func TestConvergeRespectsMaxRuns(t *testing.T) {
	tr := loopTrace(8, 60)
	cfg := DefaultConfig()
	cfg.InitialRuns = 100
	cfg.Increment = 100
	cfg.MaxRuns = 250
	cfg.StabilityEps = 0 // never stable
	cfg.StableRounds = 3
	c, err := NewCampaign(tr, proc.DefaultModel()).ConvergeCtx(context.Background(), cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Converged {
		t.Fatal("cannot converge with eps=0")
	}
	if c.Runs < cfg.MaxRuns {
		t.Fatalf("stopped at %d runs, want >= MaxRuns", c.Runs)
	}
}

func TestConvergeRejectsTinyInitial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialRuns = 5
	if _, err := NewCampaign(loopTrace(4, 10), proc.DefaultModel()).ConvergeCtx(context.Background(), cfg, 1, nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestExtendMatchesCollect: a summary of worker-collected runs extended
// past their end holds exactly the runs of a from-scratch campaign.
func TestExtendMatchesCollect(t *testing.T) {
	tr := loopTrace(6, 40)
	m := proc.DefaultModel()
	full := Collect(tr, m, 500, 3, 0)
	c := NewCampaign(tr, m)
	runs, err := c.CollectRangeCtx(context.Background(), 0, 200, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := stats.NewFullSummary(false)
	sum.Push(runs)
	if err := c.ExtendSummaryCtx(context.Background(), sum, 500, 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	ext := sum.Sample()
	if len(ext) != 500 {
		t.Fatalf("len = %d", len(ext))
	}
	for i := range full {
		if full[i] != ext[i] {
			t.Fatalf("extend diverges at %d", i)
		}
	}
}

func TestSeedStableAndDistinct(t *testing.T) {
	if Seed("bs") != Seed("bs") {
		t.Fatal("Seed not deterministic")
	}
	if Seed("bs") == Seed("cnt") {
		t.Fatal("Seed collision between names")
	}
}

func TestPWCETUpperBoundsEmpiricalTail(t *testing.T) {
	// On a well-behaved workload (working set of 6 lines: no abrupt
	// conflict knee), the fitted curve at the empirical 99.9th percentile's
	// exceedance level must not fall below that percentile.
	tr := loopTrace(6, 80)
	sample := Collect(tr, proc.DefaultModel(), 5000, 13, 0)
	est, err := NewEstimate(sample, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q999 := stats.Quantile(sample, 0.999)
	if v := est.PWCET(0.001); v < q999*0.98 {
		t.Fatalf("pWCET@1e-3 = %v well below empirical q99.9 = %v", v, q999)
	}
	if math.IsInf(est.PWCET(1e-15), 0) || math.IsNaN(est.PWCET(1e-15)) {
		t.Fatal("deep-tail query not finite")
	}
}

func TestKneeWorkloadNeedsMoreRuns(t *testing.T) {
	// A 12-line working set has 3-line conflict groups at p ~ 2.4e-4: with
	// few runs the knee is unobserved and the estimate underestimates the
	// estimate obtained from a large campaign — the paper's Figure 4
	// motivation for TAC. (We check the large-campaign estimate is at
	// least as high; equality can happen when the knee is mild.)
	tr := loopTrace(12, 80)
	m := proc.DefaultModel()
	cfg := DefaultConfig()
	smallSample := Collect(tr, m, 400, 21, 0)
	small, err := NewEstimate(smallSample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	largeSample := Collect(tr, m, 20000, 21, 0)
	large, err := NewEstimate(largeSample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Soundness, not ordering: with more runs the estimate can tighten
	// (the paper's ns case decreases by 15%), but each estimate must
	// upper-bound its own observations, and the large campaign observes
	// at least as high a maximum.
	if large.PWCET(1e-12) < stats.Max(largeSample) {
		t.Fatalf("large-campaign pWCET (%v) below its observed max (%v)",
			large.PWCET(1e-12), stats.Max(largeSample))
	}
	if small.PWCET(1e-12) < stats.Max(smallSample) {
		t.Fatalf("small-campaign pWCET (%v) below its observed max (%v)",
			small.PWCET(1e-12), stats.Max(smallSample))
	}
	if stats.Max(largeSample) < stats.Max(smallSample) {
		t.Fatal("larger campaign observed a lower maximum with nested seeds")
	}
}
