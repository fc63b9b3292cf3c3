package mbpta

import (
	"context"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

// TestExtendToMatchesCollect proves the sample-reuse primitive of package
// core: extending a prefix summary to R runs with ExtendSummaryCtx is
// bit-identical to collecting all R runs from scratch, at any split point
// and worker count.
func TestExtendToMatchesCollect(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJ", 32), 60)
	model := proc.DefaultModel()
	camp := NewCampaign(tr, model)
	const root = 0xFEED
	full := Collect(tr, model, 300, root, 1)
	for _, split := range []int{0, 1, 137, 299, 300} {
		for _, workers := range []int{1, 4} {
			sum := stats.NewFullSummary(true)
			sum.Push(Collect(tr, model, split, root, workers))
			if err := camp.ExtendSummaryCtx(context.Background(), sum, 300, root, workers, nil); err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
			got := sum.Sample()
			if len(got) != len(full) {
				t.Fatalf("split %d: len %d, want %d", split, len(got), len(full))
			}
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("split %d workers %d: run %d = %v, want %v",
						split, workers, i, got[i], full[i])
				}
			}
		}
	}
	// A target at or below the current size is a no-op.
	sum := stats.NewFullSummary(true)
	sum.Push(full[:100])
	if err := camp.ExtendSummaryCtx(context.Background(), sum, 50, root, 1, nil); err != nil || sum.N() != 100 {
		t.Fatalf("shrinking target: got n %d err %v, want the summary unchanged", sum.N(), err)
	}
}

// TestNewEstimateSortedMatchesUnsorted checks the sorted-view estimation
// path end to end: same tail, same CV diagnostics, same curve values.
func TestNewEstimateSortedMatchesUnsorted(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJKL", 32), 40)
	sample := Collect(tr, proc.DefaultModel(), 2000, 3, 0)
	cfg := DefaultConfig()
	a, errA := NewEstimate(sample, cfg)
	b, errB := NewEstimateSorted(sample, stats.SortedCopy(sample), cfg)
	if errA != nil || errB != nil {
		t.Fatalf("estimate errors: %v / %v", errA, errB)
	}
	if *a.Tail != *b.Tail || a.CV != b.CV {
		t.Fatalf("tail/CV mismatch: %+v %+v vs %+v %+v", a.Tail, a.CV, b.Tail, b.CV)
	}
	for _, p := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15} {
		if a.PWCET(p) != b.PWCET(p) {
			t.Fatalf("PWCET(%g): %v vs %v", p, a.PWCET(p), b.PWCET(p))
		}
	}
}
