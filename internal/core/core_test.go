package core

import (
	"context"
	"testing"

	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/stats"
)

// testConfig returns a configuration sized for unit tests: small campaigns,
// capped at a few thousand runs.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MBPTA.InitialRuns = 200
	cfg.MBPTA.Increment = 200
	cfg.MBPTA.MaxRuns = 3000
	cfg.CampaignCap = 4000
	cfg.TAC.BaselineSeeds = 4
	cfg.TAC.PinSeeds = 2
	return cfg
}

// analyzePath runs the pipeline on b's default path under cfg.
func analyzePath(t *testing.T, cfg Config, b *malardalen.Benchmark) *PathAnalysis {
	t.Helper()
	pa, err := New(cfg).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

// analyzeOriginal runs plain MBPTA on b's unmodified default path under cfg.
func analyzeOriginal(t *testing.T, cfg Config, b *malardalen.Benchmark) *OriginalAnalysis {
	t.Helper()
	oa, err := New(cfg).AnalyzeOriginalCtx(context.Background(), b.Program, b.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return oa
}

func TestAnalyzePathBS(t *testing.T) {
	b := malardalen.BS()
	pa := analyzePath(t, testConfig(), b)
	if pa.Program != "bs" {
		t.Fatalf("program = %q", pa.Program)
	}
	if pa.RPub < 200 {
		t.Fatalf("RPub = %d", pa.RPub)
	}
	if pa.R != max(pa.RPub, pa.RTac) {
		t.Fatalf("R = %d, want max(%d, %d)", pa.R, pa.RPub, pa.RTac)
	}
	if pa.RunsUsed > 4000 && pa.RunsUsed != pa.RPub {
		t.Fatalf("campaign cap not honored: %d", pa.RunsUsed)
	}
	if pa.Full == nil || pa.PubOnly == nil {
		t.Fatal("missing estimates")
	}
	// The pWCET at 1e-12 upper-bounds the observed sample maximum.
	if pa.PWCET(1e-12) < stats.Max(pa.Full.Sample) {
		t.Fatalf("pWCET@1e-12 (%v) below observed max (%v)",
			pa.PWCET(1e-12), stats.Max(pa.Full.Sample))
	}
}

func TestTACRequiresMoreRunsThanMBPTA(t *testing.T) {
	// On bs, TAC's requirement (tens of thousands of runs) exceeds MBPTA's
	// convergence requirement — the paper's headline observation ("TAC
	// requires more runs than PUB to account for conflicting cache
	// placements", Table 1).
	b := malardalen.BS()
	pa := analyzePath(t, testConfig(), b)
	if pa.RTac <= pa.RPub {
		t.Fatalf("RTac = %d not above RPub = %d for bs", pa.RTac, pa.RPub)
	}
	if len(pa.TAC.Groups) == 0 {
		t.Fatal("TAC found no conflict groups on pubbed bs")
	}
}

func TestPubbedUpperBoundsOriginalPaths(t *testing.T) {
	// Corollary 1 (empirically): the pubbed path's measured ECCDF
	// upper-bounds every original path's ECCDF.
	b := malardalen.BS()
	cfg := testConfig()
	pa := analyzePath(t, cfg, b)
	pubbedECDF := stats.NewECDF(pa.Full.Sample)

	const runs = 1500
	for _, in := range malardalen.BSMaxIterationInputs(b) {
		res := b.Program.MustExec(in)
		sample := mbpta.Collect(res.Trace, cfg.Model, runs, mbpta.Seed("orig/"+in.Name), 0)
		origECDF := stats.NewECDF(sample)
		// Tolerance absorbs sampling noise at the far tail.
		if !pubbedECDF.UpperBounds(origECDF, 0.02) {
			t.Fatalf("pubbed ECCDF does not upper-bound original path %s", in.Name)
		}
	}
}

func TestAnalyzeOriginal(t *testing.T) {
	b := malardalen.CNT()
	oa := analyzeOriginal(t, testConfig(), b)
	if oa.ROrig < 200 || oa.Estimate == nil {
		t.Fatalf("original analysis incomplete: %+v", oa)
	}
}

func TestPubIncreasesPWCET(t *testing.T) {
	// For a multipath benchmark, PUB's estimate must be at or above plain
	// MBPTA's on the original program (pessimism buys path coverage).
	b := malardalen.CNT()
	oa := analyzeOriginal(t, testConfig(), b)
	pa := analyzePath(t, testConfig(), b)
	// Estimates are themselves random quantities ("variations are mostly
	// caused by random variations in the execution time sample", Section
	// 4.2); distribution-level dominance is checked in
	// TestPubbedUpperBoundsOriginalPaths. Allow modest estimator noise
	// here.
	if pa.PWCET(1e-12) < oa.Estimate.PWCET(1e-12)*0.85 {
		t.Fatalf("PUB pWCET (%v) below original pWCET (%v)",
			pa.PWCET(1e-12), oa.Estimate.PWCET(1e-12))
	}
}

func TestAnalyzeMultiPathCorollary2(t *testing.T) {
	// Corollary 2: every pubbed path's estimate is reliable, so the lowest
	// across the analyzed paths is still a bound on each original path.
	b := malardalen.BS()
	cfg := testConfig()
	inputs := malardalen.BSMaxIterationInputs(b)[:3]
	batch, err := New(cfg).AnalyzeBatch(context.Background(), []Job{{Program: b.Program, Inputs: inputs}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || len(batch[0]) != 3 {
		t.Fatalf("batch shape = %d jobs, want 1 job of 3 paths", len(batch))
	}
	p := 1e-12
	minV := batch[0][0].PWCET(p)
	for i, pa := range batch[0] {
		if pa.Input.Name != inputs[i].Name {
			t.Fatalf("path %d input = %q, want %q", i, pa.Input.Name, inputs[i].Name)
		}
		minV = min(minV, pa.PWCET(p))
	}
	const runs = 1500
	for _, in := range inputs {
		res := b.Program.MustExec(in)
		sample := mbpta.Collect(res.Trace, cfg.Model, runs, mbpta.Seed("orig/"+in.Name), 0)
		if m := stats.Max(sample); minV < m {
			t.Fatalf("min pubbed pWCET@%g (%v) below original path %s max (%v)", p, minV, in.Name, m)
		}
	}
}

func TestAnalyzeBatchNoInputs(t *testing.T) {
	b := malardalen.BS()
	if _, err := New(testConfig()).AnalyzeBatch(context.Background(), []Job{{Program: b.Program}}, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestSinglePathPubInnocuous(t *testing.T) {
	// For single-path programs PUB makes no difference to the access
	// pattern (no conditionals to balance beyond degenerate ones), so the
	// pubbed pWCET should be close to the original pWCET (Figure 5,
	// rightmost benchmarks).
	b := malardalen.MatMult()
	oa := analyzeOriginal(t, testConfig(), b)
	pa := analyzePath(t, testConfig(), b)
	// Compare the PUB-only estimate (R_pub runs): TAC's larger campaign is
	// a separate effect (Figure 5's category 2). For single-path programs
	// the pubbed trace is identical and campaigns share the root seed, so
	// the ratio is exactly 1.
	ratio := pa.PubOnly.PWCET(1e-12) / oa.Estimate.PWCET(1e-12)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("single-path PUB ratio = %v, want ~1.0", ratio)
	}
}

func TestCampaignCapZeroMeansUnlimited(t *testing.T) {
	cfg := testConfig()
	cfg.CampaignCap = 0
	cfg.TAC.ProbFloor = 0.9 // effectively disables TAC extra runs
	b := malardalen.InsertSort()
	pa := analyzePath(t, cfg, b)
	if pa.RunsUsed != pa.R {
		t.Fatalf("RunsUsed = %d, want R = %d", pa.RunsUsed, pa.R)
	}
}

func TestPathAnalysisRecordsTACClasses(t *testing.T) {
	b := malardalen.BS()
	pa := analyzePath(t, testConfig(), b)
	if pa.RTac > 0 && len(pa.TAC.Classes) == 0 {
		t.Fatal("RTac > 0 but no classes recorded")
	}
	for _, c := range pa.TAC.Classes {
		if c.Runs > pa.RTac {
			t.Fatalf("class runs %d exceed RTac %d", c.Runs, pa.RTac)
		}
	}
}

func TestExtensionBatteryMatchesOneShot(t *testing.T) {
	// On bs, TAC demands more runs than MBPTA converged with, so analyzeOn
	// takes the campaign-extension path: the convergence rounds' battery
	// state is Pushed forward instead of re-scanning R runs. The resulting
	// report must match the one-shot reference battery over the full
	// sample (runs test and two-half KS bit-identically, Ljung-Box to
	// reassociation error).
	b := malardalen.BS()
	pa := analyzePath(t, testConfig(), b)
	if pa.RunsUsed <= pa.RPub {
		t.Fatalf("extension path not exercised: RunsUsed %d <= RPub %d", pa.RunsUsed, pa.RPub)
	}
	got := pa.Full.IID
	want := stats.CheckIID(pa.Full.Sample)
	if got.Runs != want.Runs || got.Identical != want.Identical {
		t.Fatalf("extension battery diverged from one-shot: %+v vs %+v", got, want)
	}
	lbDiff := got.LjungBox.Statistic - want.LjungBox.Statistic
	if lbDiff < 0 {
		lbDiff = -lbDiff
	}
	if scale := 1 + want.LjungBox.Statistic; lbDiff > 1e-8*scale {
		t.Fatalf("ljung-box diverged: %+v vs %+v", got.LjungBox, want.LjungBox)
	}
}

func TestIIDWarningEventEmitted(t *testing.T) {
	// At an absurdly strict significance level some battery p-value falls
	// below alpha, so the analyzer must surface an inadmissibility warning
	// through the progress sink (the battery is diagnostic; the analysis
	// still completes).
	b := malardalen.BS()
	cfg := testConfig()
	cfg.MBPTA.Alpha = 0.999
	var warnings []ProgressEvent
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Phase == "warning" {
			warnings = append(warnings, ev)
		}
	}
	pa := analyzePath(t, cfg, b)
	if pa.Full == nil {
		t.Fatal("analysis did not complete")
	}
	if len(warnings) == 0 {
		t.Fatal("no warning event despite alpha=0.999")
	}
	w := warnings[0]
	if w.Program != "bs" || w.Note == "" || w.Done != pa.RPub {
		t.Fatalf("malformed warning event: %+v", w)
	}

	// The original-program analysis goes through the same check. Original
	// paths at this scale are usually conflict-free (constant samples, so
	// the battery degenerates to p=1 and passes even here); assert the
	// warning tracks the report either way.
	warnings = nil
	oa := analyzeOriginal(t, cfg, b)
	if failed := !oa.Estimate.IID.Passed(cfg.MBPTA.Alpha); failed != (len(warnings) > 0) {
		t.Fatalf("AnalyzeOriginal: battery failed=%v but %d warnings", failed, len(warnings))
	}
}

func TestIIDWarningAbsentWhenAdmissible(t *testing.T) {
	// Campaign runs draw independent seeds, so at the conventional alpha
	// the bs battery passes and no warning may be emitted.
	b := malardalen.BS()
	cfg := testConfig()
	var warnings int
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Phase == "warning" {
			warnings++
		}
	}
	pa := analyzePath(t, cfg, b)
	// Both batteries the analyzer checks must have passed for "no warning"
	// to be the required outcome: the convergence-time one and — when TAC
	// extended the campaign — the extended sample's.
	admissible := pa.PubOnly.IID.Passed(cfg.MBPTA.Alpha) && pa.Full.IID.Passed(cfg.MBPTA.Alpha)
	if !admissible {
		t.Skip("battery failed at conventional alpha on this sample")
	}
	if warnings != 0 {
		t.Fatalf("%d warning events despite admissible batteries", warnings)
	}
}

// TestTACWorkerCountInvariance: the pipeline's TAC results (and everything
// derived from them: run requirements, estimates) are bit-identical at any
// TAC worker count. The indexed-against-reference enumeration check lives
// in package tac (TestIndexedMatchesReference).
func TestTACWorkerCountInvariance(t *testing.T) {
	b := malardalen.CNT()
	run := func(workers int) *PathAnalysis {
		cfg := testConfig()
		cfg.TAC.Workers = workers
		return analyzePath(t, cfg, b)
	}
	want := run(1)
	for _, workers := range []int{0, 4} {
		got := run(workers)
		if got.RTac != want.RTac || got.R != want.R {
			t.Fatalf("workers=%d: RTac %d vs %d at one worker", workers, got.RTac, want.RTac)
		}
		if len(got.TAC.Groups) != len(want.TAC.Groups) || got.TAC.BaselineMean != want.TAC.BaselineMean {
			t.Fatalf("workers=%d: TAC analysis diverged from one worker", workers)
		}
		if got.PWCET(1e-12) != want.PWCET(1e-12) {
			t.Fatalf("workers=%d: pWCET diverged", workers)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
