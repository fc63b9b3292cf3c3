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
// summary whose incremental battery was fed the whole sample reproduces
// NewEstimate over the adopted sorted sample — identical fit, curve and CV,
// with the battery report matching the one-shot reference (runs/KS
// bit-identically, Ljung-Box to reassociation error).
func TestIncrementalBatteryEstimateMatchesSorted(t *testing.T) {
	tr := loopTrace(10, 80)
	sample := Collect(tr, proc.DefaultModel(), 2000, 17, 0)
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
// campaign samples: the battery pushed in collectBlock-sized chunks (the
// granularity core's campaign workers deliver runs at) must reproduce the
// one-shot CheckIID report across randomized campaigns.
func TestIIDStateMatchesCheckIIDOnCampaigns(t *testing.T) {
	m := proc.DefaultModel()
	for _, root := range []uint64{1, 77, 0xBEEF} {
		for _, n := range []int{400, 1500, 2*collectBlock - 5} {
			sample := Collect(loopTrace(9, 70), m, n, root, 0)
			want := stats.CheckIID(sample)
			st := new(stats.IIDState)
			for lo := 0; lo < n; lo += collectBlock {
				hi := lo + collectBlock
				if hi > n {
					hi = n
				}
				st.Push(sample[lo:hi])
			}
			got := st.ReportSorted(sample, stats.SortedCopy(sample))
			if !sameTest(got.Runs, want.Runs) || !sameTest(got.Identical, want.Identical) {
				t.Fatalf("root=%d n=%d: battery %+v != one-shot %+v", root, n, got, want)
			}
			if !closeTest(got.LjungBox, want.LjungBox, 1e-8) {
				t.Fatalf("root=%d n=%d: ljung-box %+v != one-shot %+v", root, n, got.LjungBox, want.LjungBox)
			}
		}
	}
}

// TestConvergeReferenceIIDEquivalence runs the same convergence search with
// the incremental battery and through the Campaign.referenceIID seam (the
// one-shot CheckIID oracle every round): the searches must take identical paths —
// same runs, rounds and pWCET, since the battery is diagnostic — and the
// final admissibility reports must agree.
func TestConvergeReferenceIIDEquivalence(t *testing.T) {
	tr := loopTrace(8, 60)
	m := proc.DefaultModel()
	cfg := DefaultConfig()
	cfg.InitialRuns = 300
	cfg.Increment = 300
	cfg.MaxRuns = 20000

	fast, err := NewCampaign(tr, m).ConvergeCtx(context.Background(), cfg, 23, nil)
	if err != nil {
		t.Fatal(err)
	}
	refCamp := NewCampaign(tr, m)
	refCamp.referenceIID = true
	ref, err := refCamp.ConvergeCtx(context.Background(), cfg, 23, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Runs != ref.Runs || fast.Rounds != ref.Rounds || fast.Converged != ref.Converged {
		t.Fatalf("search paths diverged: %d/%d/%v vs %d/%d/%v",
			fast.Runs, fast.Rounds, fast.Converged, ref.Runs, ref.Rounds, ref.Converged)
	}
	if fast.Estimate.PWCET(1e-12) != ref.Estimate.PWCET(1e-12) {
		t.Fatalf("pWCET diverged: %v vs %v", fast.Estimate.PWCET(1e-12), ref.Estimate.PWCET(1e-12))
	}
	fi, ri := fast.Estimate.IID, ref.Estimate.IID
	if !sameTest(fi.Runs, ri.Runs) || !sameTest(fi.Identical, ri.Identical) {
		t.Fatalf("battery diverged: %+v vs %+v", fi, ri)
	}
	if !closeTest(fi.LjungBox, ri.LjungBox, 1e-8) {
		t.Fatalf("ljung-box diverged: %+v vs %+v", fi.LjungBox, ri.LjungBox)
	}
	fs, ok := fast.Summary.(*stats.FullSummary)
	if !ok {
		t.Fatalf("non-streaming search should carry a *stats.FullSummary, got %T", fast.Summary)
	}
	if fs.N() != fast.Runs {
		t.Fatalf("summary covers %d runs, campaign has %d", fs.N(), fast.Runs)
	}
	if ref.Summary.N() != ref.Runs {
		t.Fatalf("reference summary covers %d runs, campaign has %d", ref.Summary.N(), ref.Runs)
	}
}
