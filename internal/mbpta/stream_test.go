package mbpta

import (
	"context"
	"math"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
)

// streamCfg returns a laptop-sized convergence config with the streaming
// estimation arm enabled at the given budget.
func streamCfg(budget int) Config {
	cfg := DefaultConfig()
	cfg.InitialRuns = 300
	cfg.Increment = 300
	cfg.MaxRuns = 6000
	cfg.Streaming = true
	cfg.StreamBudget = budget
	return cfg
}

// TestConvergeStreamingMatchesReference: with a budget comfortably above the
// auto-fit window (n/5), a streaming convergence run must reproduce the
// full-sample reference bit for bit on everything the pWCET depends on —
// run counts, round counts, the fitted tail, the CV test and the curve —
// while retaining no sample. The KS check stays bit-identical too (integer
// cycle grids keep the sketch exact and the first-half retention covers
// n/2); Ljung-Box agrees to reassociation error and the runs test to the
// documented per-block-median drift.
func TestConvergeStreamingMatchesReference(t *testing.T) {
	tr := loopTrace(8, 60)
	m := proc.DefaultModel()
	cfg := streamCfg(8192)
	refCfg := cfg
	refCfg.Streaming = false
	refCfg.StreamBudget = 0

	for _, workers := range []int{1, 4} {
		cfg.Workers, refCfg.Workers = workers, workers
		fast, err := NewCampaign(tr, m, 11).ConvergeCtx(context.Background(), cfg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewCampaign(tr, m, 11).ConvergeCtx(context.Background(), refCfg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}

		if fast.Runs != ref.Runs || fast.Rounds != ref.Rounds || fast.Converged != ref.Converged {
			t.Fatalf("workers=%d: trajectory diverged: (%d,%d,%v) vs (%d,%d,%v)", workers,
				fast.Runs, fast.Rounds, fast.Converged, ref.Runs, ref.Rounds, ref.Converged)
		}
		fe, re := fast.Estimate, ref.Estimate
		if *fe.Tail != *re.Tail || fe.CV != re.CV {
			t.Fatalf("workers=%d: fit diverged: %+v/%+v vs %+v/%+v", workers, fe.Tail, fe.CV, re.Tail, re.CV)
		}
		for _, p := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15} {
			if fe.PWCET(p) != re.PWCET(p) {
				t.Fatalf("workers=%d: PWCET(%g): %v vs %v", workers, p, fe.PWCET(p), re.PWCET(p))
			}
		}
		if fe.MaxObserved() != re.MaxObserved() || fe.Runs() != re.Runs() {
			t.Fatalf("workers=%d: view diverged: max %v/%v, n %d/%d", workers,
				fe.MaxObserved(), re.MaxObserved(), fe.Runs(), re.Runs())
		}

		// The streaming arm retains no sample and bounds its memory.
		if _, ok := fast.Summary.(*stats.StreamingSummary); !ok {
			t.Fatalf("workers=%d: summary is %T, want StreamingSummary", workers, fast.Summary)
		}
		if fe.Sample() != nil {
			t.Fatalf("workers=%d: streaming estimate retained the sample", workers)
		}
		if re.Sample() == nil || len(re.Sample()) != ref.Runs {
			t.Fatalf("workers=%d: reference estimate lost its sample", workers)
		}
		if bound := 48*cfg.StreamBudget + 8192; fast.Summary.PeakBytes() > bound {
			t.Fatalf("workers=%d: streaming peak %d B exceeds budget bound %d B", workers,
				fast.Summary.PeakBytes(), bound)
		}

		if !sameTest(fe.IID.Identical, re.IID.Identical) {
			t.Fatalf("workers=%d: ks diverged: %+v vs %+v", workers, fe.IID.Identical, re.IID.Identical)
		}
		if !closeTest(fe.IID.LjungBox, re.IID.LjungBox, 1e-8) {
			t.Fatalf("workers=%d: ljung-box diverged: %+v vs %+v", workers, fe.IID.LjungBox, re.IID.LjungBox)
		}
		if math.Abs(fe.IID.Runs.Statistic-re.IID.Runs.Statistic) > 0.25 {
			t.Fatalf("workers=%d: runs drifted: %+v vs %+v", workers, fe.IID.Runs, re.IID.Runs)
		}
	}
}

// TestConvergeStreamingDeterministic: the streaming arm keeps the repo's
// determinism contract — identical results at any worker count.
func TestConvergeStreamingDeterministic(t *testing.T) {
	tr := loopTrace(6, 40)
	m := proc.DefaultModel()
	cfg := streamCfg(1024)
	cfg.Workers = 1
	base, err := NewCampaign(tr, m, 7).ConvergeCtx(context.Background(), cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		c, err := NewCampaign(tr, m, 7).ConvergeCtx(context.Background(), cfg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Runs != base.Runs || *c.Estimate.Tail != *base.Estimate.Tail ||
			c.Estimate.PWCET(1e-12) != base.Estimate.PWCET(1e-12) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
		if c.Summary.(*stats.StreamingSummary).PeakBytes() != base.Summary.PeakBytes() {
			t.Fatalf("workers=%d: peak bytes not deterministic", workers)
		}
	}
}

// TestConvergeStreamingSingleRound: a campaign whose ceiling equals the
// initial round converges (or stops) in one round without touching the
// extension path.
func TestConvergeStreamingSingleRound(t *testing.T) {
	cfg := streamCfg(1024)
	cfg.InitialRuns = 400
	cfg.MaxRuns = 400
	c, err := NewCampaign(loopTrace(6, 40), proc.DefaultModel(), 3).ConvergeCtx(context.Background(), cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Runs != 400 || c.Rounds != 0 {
		t.Fatalf("runs=%d rounds=%d, want 400 with no extension rounds", c.Runs, c.Rounds)
	}
	if c.Estimate == nil || c.Summary.N() != 400 {
		t.Fatal("estimate/summary inconsistent")
	}
}

// TestConvergeStreamingMemoryIndependentOfRuns pins the acceptance
// criterion: growing the campaign 5x leaves the streaming arm's peak
// estimation memory unchanged — it is a function of the budget, not of the
// run count — while the full-sample arm's grows linearly.
func TestConvergeStreamingMemoryIndependentOfRuns(t *testing.T) {
	tr := loopTrace(6, 40)
	m := proc.DefaultModel()
	cfg := streamCfg(256)
	cfg.InitialRuns = 500
	cfg.Increment = 500
	cfg.StabilityEps = 0 // never stable: always runs to MaxRuns
	cfg.StableRounds = 3

	peaks := map[int]int{}
	for _, maxRuns := range []int{2000, 10000} {
		cfg2 := cfg
		cfg2.MaxRuns = maxRuns
		c, err := NewCampaign(tr, m, 13).ConvergeCtx(context.Background(), cfg2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Converged {
			t.Fatal("cannot converge with eps=0")
		}
		if c.Summary.N() != maxRuns {
			t.Fatalf("n=%d, want %d", c.Summary.N(), maxRuns)
		}
		peaks[maxRuns] = c.Summary.PeakBytes()
	}
	// Peak memory is a function of the budget, not the run count: the 5x
	// campaign may fill a few more sketch buckets, nothing more.
	if peaks[10000] > peaks[2000]+1024 {
		t.Fatalf("streaming peak grew with the campaign: %d B at 2k runs, %d B at 10k", peaks[2000], peaks[10000])
	}
	if bound := 48*256 + 8192; peaks[10000] > bound {
		t.Fatalf("streaming peak %d B exceeds budget bound %d B", peaks[10000], bound)
	}

	full := cfg
	full.Streaming = false
	full.MaxRuns = 10000
	c, err := NewCampaign(tr, m, 13).ConvergeCtx(context.Background(), full, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Summary.PeakBytes() < 10000*2 {
		t.Fatalf("full-sample peak %d B implausibly small: its codes alone take 2 B per run", c.Summary.PeakBytes())
	}
}
