package mbpta

import (
	"context"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

// TestExtendToMatchesCollect proves the sample-reuse primitive behind a
// search's floor: extending a prefix summary to R runs through a
// read-ahead is bit-identical to collecting all R runs from scratch, at
// any split point and worker count.
func TestExtendToMatchesCollect(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJ", 32), 60)
	model := proc.DefaultModel()
	const root = 0xFEED
	camp := NewCampaign(tr, model, root)
	full := collect(t, tr, model, 300, root, 1)
	for _, split := range []int{0, 1, 137, 299, 300} {
		for _, workers := range []int{1, 4} {
			sum := stats.NewFullSummary(true)
			sum.Push(collect(t, tr, model, split, root, workers))
			if err := extend(context.Background(), camp, sum, 300, workers, nil); err != nil {
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
	if err := extend(context.Background(), camp, sum, 50, 1, nil); err != nil || sum.N() != 100 {
		t.Fatalf("shrinking target: got n %d err %v, want the summary unchanged", sum.N(), err)
	}
}

// extend grows sum to target runs through a read-ahead whose need is
// exactly those runs, pushing them as a search pushes the runs between
// R_pub and its floor.
func extend(ctx context.Context, c *Campaign, sum stats.SampleSummary, target, workers int,
	progress Progress) error {
	ra := c.readAhead(ctx, sum, workers, progress, target)
	defer ra.close()
	return ra.push(sum, target-sum.N())
}
