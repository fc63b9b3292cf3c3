package mbpta

import (
	"context"
	"runtime"
	"testing"

	"pubtac/internal/malardalen"
	"pubtac/internal/proc"
	"pubtac/internal/pub"
)

// TestCollectReusesEngines: a campaign keeps its engines, with their
// placement and replay scratch, on its free list between collections, so
// a collection after the first allocates its runs plus a small constant
// (about 300 B on one worker, under 1 KiB on two), not an engine per
// worker (31 KB on the pubbed bs path, 37 KB on ns, before the list). A
// shard worker's cached campaign pays the engines once.
func TestCollectReusesEngines(t *testing.T) {
	const n, iters, trials, slack = 1000, 10, 5, 2048
	ctx := context.Background()
	for _, bm := range []*malardalen.Benchmark{malardalen.BS(), malardalen.NS()} {
		pubbed, _, err := pub.Transform(bm.Program)
		if err != nil {
			t.Fatal(err)
		}
		camp := NewCampaign(pubbed.MustExec(bm.Default()).Trace, proc.DefaultModel(), 1)
		for _, workers := range []int{1, 2} {
			if _, err := camp.CollectRangeCtx(ctx, 0, n, workers, nil); err != nil {
				t.Fatal(err)
			}
			// The counters are process-wide, so anything else the runtime
			// allocates meanwhile only adds: the least trial is the
			// collection's own.
			least := ^uint64(0)
			for trial := 0; trial < trials; trial++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < iters; i++ {
					if _, err := camp.CollectRangeCtx(ctx, 0, n, workers, nil); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				least = min(least, (after.TotalAlloc-before.TotalAlloc)/iters)
			}
			if least > 8*n+slack {
				t.Errorf("%s, %d workers: a collection of %d runs allocates %d B, want at most %d",
					bm.Name, workers, n, least, 8*n+slack)
			}
		}
	}
}
