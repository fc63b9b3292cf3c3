package mbpta

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/rng"
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

// sameFullSummary reports whether two full summaries hold the same runs bit
// for bit, compared as their wire frames (the sorted view and the battery
// are functions of the runs), and the same peak.
func sameFullSummary(t *testing.T, a, b stats.SampleSummary) bool {
	t.Helper()
	ea, errA := stats.EncodeSummary(a)
	eb, errB := stats.EncodeSummary(b)
	if errA != nil || errB != nil {
		t.Fatalf("encode: %v / %v", errA, errB)
	}
	return string(ea) == string(eb) && a.PeakBytes() == b.PeakBytes()
}

// Concatenating per-shard CollectRangeCtx runs for consecutive ranges, in
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
			joined = append(joined, part...)
		}
		if !slices.Equal(joined, whole) {
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
	return sf.camp.CollectRangeCtx(ctx, r.Lo, r.Hi, sf.root, sf.workers, nil)
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
			if !sameFullSummary(t, conv.Summary, ref.Summary) {
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
			if !sameFullSummary(t, sum, ref) {
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

// A streaming campaign collects in windows of its budget's run count,
// rounded down to whole streamChunk pushes and at least one, and splits
// each window into the shards: one fetch per shard per window. The pushes
// stay 512-run chunks counted from the start of the pushed range, so the
// summary is the one built by pushing the same runs chunk by chunk: the
// local runs when every fetch fails, and a served window's runs otherwise.
// The served runs take 1,000 levels, so the sketch median moves between
// pushes and the streaming battery's state shows where each push starts and
// ends.
func TestShardSplitStreamingWindow(t *testing.T) {
	tr := loopTrace(4, 30)
	model := proc.DefaultModel()
	const root, from = 1, 1000
	served := func(i int) float64 { return float64(rng.Mix64(uint64(i)) % 1000) }
	for _, tc := range []struct {
		name   string
		budget int
		to     int
		want   []Range
	}{
		// 6 fetches; fetching per 512-run chunk would make 80.
		{"default-budget", DefaultStreamBudget, 21000, []Range{{1000, 5096}, {5096, 9192},
			{9192, 13288}, {13288, 17384}, {17384, 19192}, {19192, 21000}}},
		{"budget-64", 64, 2500, []Range{{1000, 1256}, {1256, 1512}, {1512, 1768}, {1768, 2024},
			{2024, 2262}, {2262, 2500}}},
		// Rounded down to one chunk: a 1,000-run window would move the
		// push boundaries off the 512-run grid.
		{"budget-1000", 1000, 2500, []Range{{1000, 1256}, {1256, 1512}, {1512, 1768}, {1768, 2024},
			{2024, 2262}, {2262, 2500}}},
	} {
		for _, serve := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/serve=%v", tc.name, serve), func(t *testing.T) {
				var mu sync.Mutex
				var got []Range
				camp := NewCampaign(tr, model)
				camp.SetRemote(func(_ context.Context, r Range) ([]float64, error) {
					mu.Lock()
					got = append(got, r)
					mu.Unlock()
					if !serve {
						return nil, errors.New("injected shard failure")
					}
					runs := make([]float64, r.Hi-r.Lo)
					for i := range runs {
						runs[i] = served(r.Lo + i)
					}
					return runs, nil
				}, 2)
				sum := stats.NewStreamingSummary(tc.budget)
				if err := camp.ExtendSummaryCtx(context.Background(), sum, from, root, 1, nil); err != nil {
					t.Fatal(err)
				}
				got = got[:0]
				if err := camp.ExtendSummaryCtx(context.Background(), sum, tc.to, root, 1, nil); err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(got, func(a, b Range) int { return a.Lo - b.Lo })
				if !slices.Equal(got, tc.want) {
					t.Errorf("fetched %v, want %v", got, tc.want)
				}

				runs := Collect(tr, model, tc.to, root, 1)
				if serve {
					for i := range runs {
						runs[i] = served(i)
					}
				}
				ref := stats.NewStreamingSummary(tc.budget)
				for _, span := range []Range{{0, from}, {from, tc.to}} {
					for lo := span.Lo; lo < span.Hi; lo += streamChunk {
						ref.Push(runs[lo:min(lo+streamChunk, span.Hi)])
					}
				}
				if !reflect.DeepEqual(sum, ref) {
					t.Fatal("summary differs from one fed the same runs in 512-run chunks")
				}
			})
		}
	}
}
