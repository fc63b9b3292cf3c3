package mbpta

import (
	"context"
	"errors"
	"slices"
	"sync"
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

// Concatenating per-shard CollectRangeCtx samples for consecutive ranges, in
// index order, must reproduce the single-range sample bit for bit — the
// worker half of the distributed determinism argument, and exactly what the
// coordinator does with the samples its workers return.
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
		var joined []float64
		for i := 0; i < shards; i++ {
			lo, hi := i*n/shards, (i+1)*n/shards
			part, err := camp.CollectRangeCtx(ctx, lo, hi, 42, cfg.Workers, nil)
			if err != nil {
				t.Fatalf("shards=%d part %d: %v", shards, i, err)
			}
			joined = append(joined, part.Sample()...)
		}
		if !slices.Equal(joined, whole.Sample()) {
			t.Fatalf("shards=%d: concatenated shard samples differ from the single-range sample", shards)
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

// shardingFetch is a test fetch function that computes shards through a
// second campaign's CollectRangeCtx — exactly what a remote worker does —
// and fails every shard the fail predicate selects, leaving it to the local
// engines.
type shardingFetch struct {
	camp    *Campaign
	workers int
	root    uint64
	fail    func(Range) bool
	calls   atomic.Int64
	failed  atomic.Int64
}

func (sf *shardingFetch) fetch(ctx context.Context, r Range) ([]float64, error) {
	sf.calls.Add(1)
	if sf.fail != nil && sf.fail(r) {
		sf.failed.Add(1)
		return nil, errors.New("injected shard failure")
	}
	sum, err := sf.camp.CollectRangeCtx(ctx, r.Lo, r.Hi, sf.root, sf.workers, nil)
	if err != nil {
		return nil, err
	}
	return sum.Sample(), nil
}

// The distributed oracle pair: a campaign collecting through SetRemote —
// with shards computed by a worker-style fetch, including failed shards
// recomputed by the local engines — must converge to an estimate
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
		fail   func(Range) bool
	}{
		{"shards=1", 1, nil},
		{"shards=2", 2, nil},
		{"shards=8", 8, nil},
		// Every convergence round collects 200 runs, so its shard 4 of 8
		// starts 100 runs in.
		{"shards=8/middle-fails", 8, func(r Range) bool { return r.Lo%200 == 100 }},
		{"shards=2/all-fail", 2, func(Range) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := NewCampaign(tr, model)
			sf := &shardingFetch{camp: worker, workers: cfg.Workers, root: root, fail: tc.fail}
			dist := NewCampaign(tr, model)
			dist.SetRemote(sf.fetch, tc.shards)

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
			if sf.calls.Load() == 0 {
				t.Fatal("remote fetch never consulted")
			}
			if tc.fail != nil && sf.failed.Load() == 0 {
				t.Fatal("failure injection never fired")
			}
		})
	}
}

// A fetch that fails every shard degrades to the local reference arm, and a
// reply of the wrong length is recomputed, not trusted — at any shard count,
// including more shards than runs.
func TestRemoteCollectorDegradation(t *testing.T) {
	tr := loopTrace(6, 40)
	model := proc.DefaultModel()
	cfg := shardCfg()
	ctx := context.Background()

	ref, err := NewCampaign(tr, model).CollectCtx(ctx, 700, 7, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, tc := range []struct {
		name   string
		shards int
		fetch  func(context.Context, Range) ([]float64, error)
	}{
		{"unreachable", 4, func(context.Context, Range) ([]float64, error) {
			return nil, errors.New("all peers unreachable")
		}},
		{"short", 4, func(_ context.Context, r Range) ([]float64, error) {
			return make([]float64, r.Hi-r.Lo-1), nil
		}},
		{"long", 3, func(_ context.Context, r Range) ([]float64, error) {
			return make([]float64, r.Hi-r.Lo+1), nil
		}},
		{"more-shards-than-runs", 1000, func(_ context.Context, r Range) ([]float64, error) {
			return make([]float64, r.Hi-r.Lo+1), nil
		}},
	} {
		c := NewCampaign(tr, model)
		c.SetRemote(tc.fetch, tc.shards)
		got, err := c.CollectCtx(ctx, 700, 7, cfg.Workers, nil)
		if err != nil {
			t.Fatalf("%s: degraded collect: %v", tc.name, err)
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("%s: degraded sample differs from the local reference", tc.name)
		}
	}
}

// A sharded collection reports progress the way a local one does: whether
// the fetch serves every shard, some or none, done never decreases, never
// passes the target, and ends at the end of the collected range — here an
// extension from run 300 to 1300, so the shard arithmetic runs at an offset.
func TestShardedCollectProgress(t *testing.T) {
	tr := loopTrace(6, 40)
	model := proc.DefaultModel()
	const root, from, to = 5, 300, 1300
	ctx := context.Background()

	ref := stats.NewFullSummary(true)
	if err := NewCampaign(tr, model).ExtendSummaryCtx(ctx, ref, to, root, 1, nil); err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, tc := range []struct {
		name string
		fail func(Range) bool
	}{
		{"none-fail", func(Range) bool { return false }},
		// Shards start at 300, 500, 700, 900 and 1100: the second and the
		// fourth fail.
		{"some-fail", func(r Range) bool { return r.Lo%400 == 100 }},
		{"all-fail", func(Range) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sf := &shardingFetch{camp: NewCampaign(tr, model), workers: 1, root: root, fail: tc.fail}
			c := NewCampaign(tr, model)
			c.SetRemote(sf.fetch, 5)
			sum := stats.NewFullSummary(true)
			if err := c.ExtendSummaryCtx(ctx, sum, from, root, 1, nil); err != nil {
				t.Fatal(err)
			}
			var dones []int
			err := c.ExtendSummaryCtx(ctx, sum, to, root, 1, func(done, target int) {
				if target != to {
					t.Errorf("target = %d, want %d", target, to)
				}
				dones = append(dones, done)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(dones) == 0 || dones[len(dones)-1] != to {
				t.Fatalf("progress %v does not end at %d", dones, to)
			}
			prev := from
			for _, d := range dones {
				if d < prev || d > to {
					t.Fatalf("progress %v: %d after %d leaves [%d, %d] or goes back", dones, d, prev, from, to)
				}
				prev = d
			}
			if got, want := encodeOrDie(t, sum), encodeOrDie(t, ref); string(got) != string(want) {
				t.Fatal("sharded extension differs from the local reference")
			}
		})
	}
}

// The shard split is pinned: a range of n runs from offset is cut into
// k = min(max(shards, 1), n) shards, shard i covering offset+i*n/k up to
// offset+(i+1)*n/k. Workers see exactly these ShardSpec ranges, and the
// benchmark's rebuilt pipeline mirrors the same arithmetic.
func TestShardSplit(t *testing.T) {
	camp := NewCampaign(loopTrace(4, 30), proc.DefaultModel())
	for _, tc := range []struct {
		shards int
		want   []Range
	}{
		{0, []Range{{300, 310}}},
		{4, []Range{{300, 302}, {302, 305}, {305, 307}, {307, 310}}},
		{12, []Range{{300, 301}, {301, 302}, {302, 303}, {303, 304}, {304, 305},
			{305, 306}, {306, 307}, {307, 308}, {308, 309}, {309, 310}}},
	} {
		var mu sync.Mutex
		var got []Range
		camp.SetRemote(func(_ context.Context, r Range) ([]float64, error) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
			return nil, errors.New("recorded only")
		}, tc.shards)
		sum := stats.NewFullSummary(false)
		sum.Push(make([]float64, 300))
		if err := camp.ExtendSummaryCtx(context.Background(), sum, 310, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, func(a, b Range) int { return a.Lo - b.Lo })
		if !slices.Equal(got, tc.want) {
			t.Errorf("shards=%d: fetched %v, want %v", tc.shards, got, tc.want)
		}
	}
}
