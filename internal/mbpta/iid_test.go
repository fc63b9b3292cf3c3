package mbpta

import (
	"context"
	"math"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
)

func sameTest(a, b stats.TestResult) bool {
	return a.Name == b.Name && a.Statistic == b.Statistic && a.PValue == b.PValue
}

func closeTest(a, b stats.TestResult, tol float64) bool {
	relOK := func(x, y float64) bool {
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return math.Abs(x-y) <= tol*scale
	}
	return a.Name == b.Name && relOK(a.Statistic, b.Statistic) && relOK(a.PValue, b.PValue)
}

// TestIncrementalBatteryEstimateMatchesSorted: estimating from a full
// summary with the one-pass battery, fed the whole sample, reproduces
// NewEstimate over the adopted sorted sample — identical fit, curve and CV,
// with the battery report matching the one-shot reference (runs/KS
// bit-identically, Ljung-Box to reassociation error).
func TestIncrementalBatteryEstimateMatchesSorted(t *testing.T) {
	tr := loopTrace(10, 80)
	sample := collect(t, tr, proc.DefaultModel(), 2000, 17, 0)
	cfg := DefaultConfig()

	ref, err := NewEstimate(sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := stats.NewFullSummary(true)
	sum.Push(sample)
	inc, err := NewEstimateSummary(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *ref.Tail != *inc.Tail || ref.CV != inc.CV {
		t.Fatalf("fit diverged: %+v/%+v vs %+v/%+v", ref.Tail, ref.CV, inc.Tail, inc.CV)
	}
	for _, p := range []float64{1e-3, 1e-9, 1e-15} {
		if ref.PWCET(p) != inc.PWCET(p) {
			t.Fatalf("PWCET(%g): %v vs %v", p, ref.PWCET(p), inc.PWCET(p))
		}
	}
	if !sameTest(ref.IID.Runs, inc.IID.Runs) || !sameTest(ref.IID.Identical, inc.IID.Identical) {
		t.Fatalf("battery diverged: %+v vs %+v", ref.IID, inc.IID)
	}
	if !closeTest(ref.IID.LjungBox, inc.IID.LjungBox, 1e-8) {
		t.Fatalf("ljung-box diverged: %+v vs %+v", ref.IID.LjungBox, inc.IID.LjungBox)
	}
}

// TestIIDStateMatchesCheckIIDOnCampaigns is the equivalence oracle on real
// campaign samples: a full summary pushed in collectBlock-sized chunks (the
// granularity core's campaign workers deliver runs at) must report the
// one-shot CheckIID battery across randomized campaigns.
func TestIIDStateMatchesCheckIIDOnCampaigns(t *testing.T) {
	m := proc.DefaultModel()
	for _, root := range []uint64{1, 77, 0xBEEF} {
		for _, n := range []int{400, 1500, 2*collectBlock - 5} {
			sample := collect(t, loopTrace(9, 70), m, n, root, 0)
			want := stats.CheckIID(sample)
			sum := stats.NewFullSummary(true)
			for lo := 0; lo < n; lo += collectBlock {
				hi := lo + collectBlock
				if hi > n {
					hi = n
				}
				sum.Push(sample[lo:hi])
			}
			got := sum.IID()
			if !sameTest(got.Runs, want.Runs) || !sameTest(got.Identical, want.Identical) {
				t.Fatalf("root=%d n=%d: battery %+v != one-shot %+v", root, n, got, want)
			}
			if !closeTest(got.LjungBox, want.LjungBox, 1e-8) {
				t.Fatalf("root=%d n=%d: ljung-box %+v != one-shot %+v", root, n, got.LjungBox, want.LjungBox)
			}
		}
	}
}

// TestConvergeReferenceIIDEquivalence: the convergence search reports the
// battery once, on the estimate it returns, and that report must be the
// one-shot CheckIID over the search's own sample — runs and KS bit for bit,
// Ljung-Box to reassociation error — with the summary covering exactly the
// runs the search took.
func TestConvergeReferenceIIDEquivalence(t *testing.T) {
	tr := loopTrace(8, 60)
	m := proc.DefaultModel()
	cfg := DefaultConfig()
	cfg.InitialRuns = 300
	cfg.Increment = 300
	cfg.MaxRuns = 20000

	conv, err := NewCampaign(tr, m, 23).ConvergeCtx(context.Background(), cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := conv.Summary.(*stats.FullSummary)
	if !ok {
		t.Fatalf("non-streaming search should carry a *stats.FullSummary, got %T", conv.Summary)
	}
	if fs.N() != conv.Runs || len(conv.Estimate.Sample()) != conv.Runs {
		t.Fatalf("summary covers %d runs and the estimate %d, campaign has %d",
			fs.N(), len(conv.Estimate.Sample()), conv.Runs)
	}
	got, want := conv.Estimate.IID, stats.CheckIID(fs.Sample())
	if !sameTest(got.Runs, want.Runs) || !sameTest(got.Identical, want.Identical) {
		t.Fatalf("battery diverged: %+v vs one-shot %+v", got, want)
	}
	if !closeTest(got.LjungBox, want.LjungBox, 1e-8) {
		t.Fatalf("ljung-box diverged: %+v vs one-shot %+v", got.LjungBox, want.LjungBox)
	}
}
