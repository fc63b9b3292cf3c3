package mbpta

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/stats"
)

// shardCfg is a campaign configuration small enough for unit tests while
// still taking several convergence rounds.
func shardCfg() Config {
	cfg := DefaultConfig()
	cfg.InitialRuns = 200
	cfg.Increment = 200
	cfg.MaxRuns = 1200
	cfg.Workers = 2
	return cfg
}

// encodeOrDie collapses a summary to its wire bytes — the strictest equality
// available, covering sample, sorted view and battery state at once.
func encodeOrDie(t *testing.T, sum stats.SampleSummary) []byte {
	t.Helper()
	b, err := stats.EncodeSummary(sum)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// Merging per-shard CollectRangeCtx summaries for consecutive ranges, in
// index order, must reproduce the single-range summary bit for bit — the
// worker half of the distributed determinism argument.
func TestCollectRangeMergeBitIdentical(t *testing.T) {
	camp := NewCampaign(loopTrace(8, 50), proc.DefaultModel())
	cfg := shardCfg()
	const n = 1000
	ctx := context.Background()

	whole, err := camp.CollectRangeCtx(ctx, 0, n, 42, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("whole: %v", err)
	}

	for _, shards := range []int{1, 2, 8} {
		var merged *stats.FullSummary
		for i := 0; i < shards; i++ {
			lo, hi := i*n/shards, (i+1)*n/shards
			part, err := camp.CollectRangeCtx(ctx, lo, hi, 42, cfg.Workers, nil)
			if err != nil {
				t.Fatalf("shards=%d part %d: %v", shards, i, err)
			}
			if merged == nil {
				merged = part
				continue
			}
			if err := merged.Merge(part); err != nil {
				t.Fatalf("shards=%d merge %d: %v", shards, i, err)
			}
		}
		if got, want := encodeOrDie(t, merged), encodeOrDie(t, whole); string(got) != string(want) {
			t.Fatalf("shards=%d: merged summary differs from single-range summary", shards)
		}
		if merged.IID() != whole.IID() {
			t.Fatalf("shards=%d: battery report differs", shards)
		}
	}
}

// CollectRangeCtx rejects nonsense ranges and honors cancellation.
func TestCollectRangeValidation(t *testing.T) {
	camp := NewCampaign(loopTrace(4, 30), proc.DefaultModel())
	cfg := shardCfg()
	if _, err := camp.CollectRangeCtx(context.Background(), -1, 5, 1, cfg.Workers, nil); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := camp.CollectRangeCtx(context.Background(), 7, 3, 1, cfg.Workers, nil); err == nil {
		t.Fatal("hi < lo accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := camp.CollectRangeCtx(ctx, 0, 100000, 1, cfg.Workers, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collect: err = %v", err)
	}
}

// shardingCollector is a test RangeCollector that computes shards through a
// second campaign's CollectRangeCtx — exactly what a remote worker does —
// and fails every shard the fail predicate selects, returning it as a
// leftover range for the local fallback.
type shardingCollector struct {
	camp    *Campaign
	workers int
	root    uint64
	shards  int
	fail    func(shard int) bool
	calls   atomic.Int64
	failed  atomic.Int64
}

func (sc *shardingCollector) collect(ctx context.Context, dst []float64, offset int) ([]Range, error) {
	var leftover []Range
	n := len(dst)
	for i := 0; i < sc.shards; i++ {
		lo, hi := offset+i*n/sc.shards, offset+(i+1)*n/sc.shards
		if lo == hi {
			continue
		}
		sc.calls.Add(1)
		if sc.fail != nil && sc.fail(i) {
			sc.failed.Add(1)
			leftover = append(leftover, Range{Lo: lo, Hi: hi})
			continue
		}
		sum, err := sc.camp.CollectRangeCtx(ctx, lo, hi, sc.root, sc.workers, nil)
		if err != nil {
			return nil, err
		}
		copy(dst[lo-offset:hi-offset], sum.Sample())
	}
	return leftover, nil
}

// The distributed oracle pair: a campaign collecting through SetRemote —
// with shards computed by a worker-style collector, including failed shards
// recomputed by the local fallback — must converge to an estimate
// bit-identical to the purely local collectLocal reference arm, extension
// rounds included.
func TestDistributedConvergeMatchesLocal(t *testing.T) {
	tr := loopTrace(8, 50)
	model := proc.DefaultModel()
	cfg := shardCfg()
	const root = 99
	ctx := context.Background()

	ref, err := NewCampaign(tr, model).ConvergeCtx(ctx, cfg, root, nil)
	if err != nil {
		t.Fatalf("reference converge: %v", err)
	}
	// Extension past convergence, as core does when TAC demands more runs.
	extendTo := ref.Runs + 300
	if err := NewCampaign(tr, model).ExtendSummaryCtx(ctx, ref.Summary, extendTo, root, cfg.Workers, nil); err != nil {
		t.Fatalf("reference extend: %v", err)
	}

	for _, tc := range []struct {
		name   string
		shards int
		fail   func(int) bool
	}{
		{"shards=1", 1, nil},
		{"shards=2", 2, nil},
		{"shards=8", 8, nil},
		{"shards=8/middle-fails", 8, func(i int) bool { return i == 4 }},
		{"shards=2/all-fail", 2, func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := NewCampaign(tr, model)
			sc := &shardingCollector{camp: worker, workers: cfg.Workers, root: root, shards: tc.shards, fail: tc.fail}
			dist := NewCampaign(tr, model)
			dist.SetRemote(sc.collect)

			conv, err := dist.ConvergeCtx(ctx, cfg, root, nil)
			if err != nil {
				t.Fatalf("distributed converge: %v", err)
			}
			if err := dist.ExtendSummaryCtx(ctx, conv.Summary, extendTo, root, cfg.Workers, nil); err != nil {
				t.Fatalf("distributed extend: %v", err)
			}

			if conv.Runs != ref.Runs || conv.Rounds != ref.Rounds || conv.Converged != ref.Converged {
				t.Fatalf("convergence differs: got (%d,%d,%v) want (%d,%d,%v)",
					conv.Runs, conv.Rounds, conv.Converged, ref.Runs, ref.Rounds, ref.Converged)
			}
			if got, want := encodeOrDie(t, conv.Summary), encodeOrDie(t, ref.Summary); string(got) != string(want) {
				t.Fatal("extended summary differs from local reference")
			}
			est, refEst := conv.Estimate, ref.Estimate
			if est.PWCET(cfg.StabilityProb) != refEst.PWCET(cfg.StabilityProb) ||
				est.Tail.Rate != refEst.Tail.Rate || est.CV != refEst.CV || est.IID != refEst.IID {
				t.Fatal("estimate differs from local reference")
			}
			if sc.calls.Load() == 0 {
				t.Fatal("remote collector never consulted")
			}
			if tc.fail != nil && sc.failed.Load() == 0 {
				t.Fatal("failure injection never fired")
			}
		})
	}
}

// A collector that errors outright degrades to the local reference arm; a
// collector returning garbage ranges is clamped, not trusted.
func TestRemoteCollectorDegradation(t *testing.T) {
	tr := loopTrace(6, 40)
	model := proc.DefaultModel()
	cfg := shardCfg()
	ctx := context.Background()

	ref, err := NewCampaign(tr, model).CollectCtx(ctx, 700, 7, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	broken := NewCampaign(tr, model)
	broken.SetRemote(func(context.Context, []float64, int) ([]Range, error) {
		return nil, errors.New("all peers unreachable")
	})
	got, err := broken.CollectCtx(ctx, 700, 7, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("degraded collect: %v", err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("degraded run %d differs", i)
		}
	}

	sloppy := NewCampaign(tr, model)
	sloppy.SetRemote(func(_ context.Context, _ []float64, offset int) ([]Range, error) {
		// Out-of-bounds, overlapping, empty and unsorted — everything a
		// confused peer could report. All runs must still be computed once.
		return []Range{
			{Lo: offset + 400, Hi: offset + 1e6},
			{Lo: offset - 50, Hi: offset + 300},
			{Lo: offset + 250, Hi: offset + 250},
			{Lo: offset + 200, Hi: offset + 500},
		}, nil
	})
	got, err = sloppy.CollectCtx(ctx, 700, 7, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("sloppy collect: %v", err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sloppy run %d differs", i)
		}
	}
}
