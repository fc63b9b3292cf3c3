package mbpta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	camp := NewCampaign(loopTrace(8, 50), proc.DefaultModel(), 42)
	cfg := shardCfg()
	const n = 1000
	ctx := context.Background()

	whole, err := camp.CollectRangeCtx(ctx, 0, n, cfg.Workers, nil)
	if err != nil {
		t.Fatalf("whole: %v", err)
	}

	for _, shards := range []int{1, 2, 8} {
		var joined []float64
		for i := 0; i < shards; i++ {
			lo, hi := i*n/shards, (i+1)*n/shards
			part, err := camp.CollectRangeCtx(ctx, lo, hi, cfg.Workers, nil)
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
	camp := NewCampaign(loopTrace(4, 30), proc.DefaultModel(), 1)
	cfg := shardCfg()
	if _, err := camp.CollectRangeCtx(context.Background(), -1, 5, cfg.Workers, nil); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := camp.CollectRangeCtx(context.Background(), 7, 3, cfg.Workers, nil); err == nil {
		t.Fatal("hi < lo accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := camp.CollectRangeCtx(ctx, 0, 100000, cfg.Workers, nil); !errors.Is(err, context.Canceled) {
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
	fail    func(Range) bool
	calls   atomic.Int64
	failed  atomic.Int64

	mu     sync.Mutex
	ranges []Range // every range fetched
}

func (sf *shardingFetch) fetch(ctx context.Context, r Range) ([]float64, error) {
	sf.calls.Add(1)
	sf.mu.Lock()
	sf.ranges = append(sf.ranges, r)
	sf.mu.Unlock()
	if sf.fail != nil && sf.fail(r) {
		sf.failed.Add(1)
		return nil, errors.New("injected shard failure")
	}
	return sf.camp.CollectRangeCtx(ctx, r.Lo, r.Hi, sf.workers, nil)
}

// The distributed oracle pair: a campaign collecting through SetRemote —
// with shards computed by a worker-style fetch, including failed shards
// recomputed by the local engines — must converge to an estimate
// bit-identical to the purely local collectLocal reference arm, and its
// read-ahead of a floor past convergence must leave the summary the
// reference's extension leaves.
func TestDistributedConvergeMatchesLocal(t *testing.T) {
	tr := loopTrace(8, 50)
	model := proc.DefaultModel()
	cfg := shardCfg()
	const root = 99
	ctx := context.Background()

	ref, err := NewCampaign(tr, model, root).ConvergeCtx(ctx, cfg, 0, nil)
	if err != nil {
		t.Fatalf("reference converge: %v", err)
	}
	// Extension past convergence, as core asks for when TAC demands more
	// runs.
	extendTo := ref.Runs + 300
	if err := extend(ctx, NewCampaign(tr, model, root), ref.Summary, extendTo, cfg.Workers, nil); err != nil {
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
		// The shard holding the middle run of the extended campaign fails.
		{"shards=8/middle-fails", 8, func(r Range) bool { return r.Lo <= extendTo/2 && extendTo/2 < r.Hi }},
		{"shards=2/all-fail", 2, func(Range) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := NewCampaign(tr, model, root)
			sf := &shardingFetch{camp: worker, workers: cfg.Workers, fail: tc.fail}
			dist := NewCampaign(tr, model, root)
			dist.SetRemote(sf.fetch, tc.shards)

			conv, err := dist.ConvergeCtx(ctx, cfg, extendTo, nil)
			if err != nil {
				t.Fatalf("distributed converge: %v", err)
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
			if sf.fail != nil && sf.failed.Load() == 0 {
				t.Fatal("failure injection never fired")
			}
		})
	}
}

// tiles reports whether rs, in any order, cover [0, n) with no gap and no
// overlap.
func tiles(rs []Range, n int) bool {
	rs = slices.Clone(rs)
	slices.SortFunc(rs, func(a, b Range) int { return a.Lo - b.Lo })
	next := 0
	for _, r := range rs {
		if r.Lo != next || r.Hi <= r.Lo {
			return false
		}
		next = r.Hi
	}
	return next == n
}

// sameSummary compares two summaries of one kind: full summaries by their
// runs (sameFullSummary), streaming ones field by field, battery state
// included.
func sameSummary(t *testing.T, a, b stats.SampleSummary) bool {
	t.Helper()
	if _, ok := a.(*stats.StreamingSummary); ok {
		return reflect.DeepEqual(a, b)
	}
	return sameFullSummary(t, a, b)
}

// The read-ahead collects every run exactly once: with the floor below, at
// and above R_pub, in both estimation modes and at 1, 2 and 3 shards, the
// fetched ranges tile [0, max(R_pub, floor)) with no overlap and no gap,
// so no run past the floor and the search's certain rounds is collected,
// and the summary is the one a floor-0 search extended to the same size
// holds. Root 23's search converges at 2,000 runs, after unstable and
// stable rounds; root 5's stops at MaxRuns. A floor below R_pub is what a
// campaign cap below R_pub passes.
func TestReadAheadCollectsEachRunOnce(t *testing.T) {
	tr := loopTrace(8, 50)
	model := proc.DefaultModel()
	ctx := context.Background()
	for _, streaming := range []bool{false, true} {
		for _, tc := range []struct {
			root      uint64
			converged bool
		}{{23, true}, {5, false}} {
			cfg := shardCfg()
			cfg.MaxRuns = 4000
			cfg.Streaming = streaming
			cfg.StreamBudget = 1024 // two 512-run chunks per window
			base, err := NewCampaign(tr, model, tc.root).ConvergeCtx(ctx, cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			rpub := base.Runs
			if base.Converged != tc.converged || base.Rounds < 2 {
				t.Fatalf("root %d: converged %v after %d rounds, want %v after several",
					tc.root, base.Converged, base.Rounds, tc.converged)
			}
			for _, floor := range []int{rpub / 2, rpub, rpub + 333, rpub + 2900} {
				used := max(rpub, floor)
				ref, err := NewCampaign(tr, model, tc.root).ConvergeCtx(ctx, cfg, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := extend(ctx, NewCampaign(tr, model, tc.root), ref.Summary, used, 1, nil); err != nil {
					t.Fatal(err)
				}
				for shards := 1; shards <= 3; shards++ {
					name := fmt.Sprintf("streaming=%v/root=%d/floor=%d/shards=%d", streaming, tc.root, floor, shards)
					t.Run(name, func(t *testing.T) {
						sf := &shardingFetch{camp: NewCampaign(tr, model, tc.root), workers: 1}
						c := NewCampaign(tr, model, tc.root)
						c.SetRemote(sf.fetch, shards)
						conv, err := c.ConvergeCtx(ctx, cfg, floor, nil)
						if err != nil {
							t.Fatal(err)
						}
						if conv.Runs != rpub || conv.Summary.N() != used {
							t.Fatalf("runs %d, summary %d; want %d and %d", conv.Runs, conv.Summary.N(), rpub, used)
						}
						if !tiles(sf.ranges, used) {
							t.Fatalf("fetched %v, which does not tile [0, %d)", sf.ranges, used)
						}
						if !sameSummary(t, conv.Summary, ref.Summary) {
							t.Fatal("summary differs from the floor-0 search extended to the same size")
						}
						if conv.Estimate.PWCET(cfg.StabilityProb) != ref.Estimate.PWCET(cfg.StabilityProb) ||
							conv.Estimate.IID != ref.Estimate.IID {
							t.Fatal("the R_pub estimate differs from the floor-0 search's")
						}
					})
				}
			}
		}
	}
}

// A search that returns while a window is in flight cancels the window
// and waits for it. The fetches here hold until cancelled and then take a
// moment to return, and none may still be running when the search returns:
// first a search cancelled while it waits on such a window, then a
// read-ahead closed right after it put its first window in flight, which
// is what every return of ConvergeCtx does.
func TestReadAheadJoinsWindowInFlight(t *testing.T) {
	cfg := shardCfg()
	cfg.Streaming = true
	cfg.StreamBudget = 512 // 512-run windows
	var running atomic.Int64
	held := make(chan struct{}, 8) // one send per held shard; never more than one window's
	hold := func(ctx context.Context) ([]float64, error) {
		running.Add(1)
		defer running.Add(-1)
		held <- struct{}{}
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		return nil, ctx.Err()
	}

	c := NewCampaign(loopTrace(6, 40), proc.DefaultModel(), 3)
	c.SetRemote(func(ctx context.Context, r Range) ([]float64, error) {
		if r.Lo < 512 {
			return nil, errors.New("recomputed locally")
		}
		return hold(ctx)
	}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.ConvergeCtx(ctx, cfg, 2000, nil)
		errc <- err
	}()
	<-held
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d fetches still running after the search returned", n)
	}

	held = make(chan struct{}, 8) // the search joined every fetch that sent
	c.SetRemote(func(ctx context.Context, _ Range) ([]float64, error) { return hold(ctx) }, 2)
	ra := c.readAhead(context.Background(), NewSummary(cfg), 1, nil, 2000)
	<-held
	ra.close()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d fetches still running after close", n)
	}
}

// A fetch that fails every shard degrades to the local reference arm, and a
// reply of the wrong length or holding a NaN or infinite run is recomputed,
// not trusted — at any shard count, including more shards than runs. Each
// case extends an empty full summary to 700 runs, which collects them in
// one sharded window.
func TestRemoteCollectorDegradation(t *testing.T) {
	tr := loopTrace(6, 40)
	model := proc.DefaultModel()
	cfg := shardCfg()
	ctx := context.Background()

	ref := collect(t, tr, model, 700, 7, cfg.Workers)
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
		{"nan", 4, func(_ context.Context, r Range) ([]float64, error) {
			runs := slices.Clone(ref[r.Lo:r.Hi])
			runs[len(runs)/2] = math.NaN()
			return runs, nil
		}},
		{"inf", 3, func(_ context.Context, r Range) ([]float64, error) {
			runs := slices.Clone(ref[r.Lo:r.Hi])
			runs[0] = math.Inf(-1)
			return runs, nil
		}},
	} {
		c := NewCampaign(tr, model, 7)
		c.SetRemote(tc.fetch, tc.shards)
		sum := stats.NewFullSummary(true)
		if err := extend(ctx, c, sum, 700, cfg.Workers, nil); err != nil {
			t.Fatalf("%s: degraded collect: %v", tc.name, err)
		}
		if !slices.Equal(sum.Sample(), ref) {
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
	if err := extend(ctx, NewCampaign(tr, model, root), ref, to, 1, nil); err != nil {
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
			sf := &shardingFetch{camp: NewCampaign(tr, model, root), workers: 1, fail: tc.fail}
			c := NewCampaign(tr, model, root)
			c.SetRemote(sf.fetch, 5)
			sum := stats.NewFullSummary(true)
			if err := extend(ctx, c, sum, from, 1, nil); err != nil {
				t.Fatal(err)
			}
			var dones []int
			err := extend(ctx, c, sum, to, 1, func(done, target int) {
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

// split cuts a window into k = min(max(shards, 1), n) shards, shard i
// covering Lo+i*n/k up to Lo+(i+1)*n/k: the documented split.
func split(w Range, shards int) []Range {
	n := w.Hi - w.Lo
	k := min(max(shards, 1), n)
	out := make([]Range, k)
	for i := range out {
		out[i] = Range{Lo: w.Lo + i*n/k, Hi: w.Lo + (i+1)*n/k}
	}
	return out
}

// recordRanges makes c fetch through a recorder that serves no shard (the
// local engines recompute every one) and returns the ranges fetched, in
// run order.
func recordRanges(c *Campaign, shards int) func() []Range {
	var mu sync.Mutex
	var got []Range
	c.SetRemote(func(_ context.Context, r Range) ([]float64, error) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
		return nil, errors.New("recorded only")
	}, shards)
	return func() []Range {
		mu.Lock()
		defer mu.Unlock()
		slices.SortFunc(got, func(a, b Range) int { return a.Lo - b.Lo })
		return slices.Clone(got)
	}
}

// The window schedule of a full summary is pinned, and so is the shard
// split of each window: a window of n runs from Lo is cut into
// k = min(max(shards, 1), n) shards, shard i covering Lo+i*n/k up to
// Lo+(i+1)*n/k. Every round of this search is unstable, so after each one
// the search is certain to take two more: the first window is the 400 runs
// needed before the first fit, and each later window is what the need grew
// by while the window before it was in flight. A floor past the search's
// end joins the first window. Workers see exactly these ShardSpec ranges.
func TestShardSplit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialRuns, cfg.Increment, cfg.MaxRuns = 200, 100, 600
	cfg.StabilityEps = -1 // no round is stable
	cfg.Workers = 1
	for _, tc := range []struct {
		floor   int
		windows []Range
	}{
		{0, []Range{{0, 400}, {400, 500}, {500, 600}}},
		{650, []Range{{0, 650}}},
	} {
		for _, shards := range []int{0, 4, 150} {
			camp := NewCampaign(loopTrace(4, 30), proc.DefaultModel(), 1)
			fetched := recordRanges(camp, shards)
			conv, err := camp.ConvergeCtx(context.Background(), cfg, tc.floor, nil)
			if err != nil {
				t.Fatal(err)
			}
			if conv.Runs != 600 || conv.Converged {
				t.Fatalf("floor %d: search stopped at %d runs (converged %v), want 600 unconverged",
					tc.floor, conv.Runs, conv.Converged)
			}
			var want []Range
			for _, w := range tc.windows {
				want = append(want, split(w, shards)...)
			}
			if got := fetched(); !slices.Equal(got, want) {
				t.Errorf("floor %d, shards=%d: fetched %v, want %v", tc.floor, shards, got, want)
			}
		}
	}
	// The split itself, spelled out: a window at an offset, and one with
	// fewer runs than shards.
	if got, want := split(Range{400, 410}, 4), []Range{{400, 402}, {402, 405}, {405, 407}, {407, 410}}; !slices.Equal(got, want) {
		t.Errorf("split into 4: %v, want %v", got, want)
	}
	if got := split(Range{400, 410}, 12); len(got) != 10 || got[9] != (Range{409, 410}) {
		t.Errorf("split of 10 runs into 12: %v, want 10 one-run shards", got)
	}
}

// A streaming search collects in windows of its budget's run count,
// rounded down to whole streamChunk pushes and at least one, each split
// into the shards: one fetch per shard per window. Its need is known up
// front here (a floor past the two rounds it is certain to take, every
// round stable), so the windows tile [0, floor) from the start. The
// pushes stay 512-run chunks counted from the start of each round and of
// the runs past R_pub, with the battery reported at R_pub, so the summary
// is the one built by pushing the same runs chunk by chunk: the local runs
// when every fetch fails, and a served window's runs otherwise. The served
// runs take 1,000 levels, so the sketch median moves between pushes and
// the streaming battery's state shows where each push starts and ends.
// The default budget's post-search chunk [8120, 8632) straddles two
// windows.
func TestShardSplitStreamingWindow(t *testing.T) {
	tr := loopTrace(4, 30)
	model := proc.DefaultModel()
	const root = 1
	served := func(i int) float64 { return float64(rng.Mix64(uint64(i)) % 1000) }
	cfg := DefaultConfig()
	cfg.Streaming = true
	cfg.StabilityEps = math.Inf(1) // every round stable: R_pub is 3,000
	cfg.Workers = 1
	for _, tc := range []struct {
		name   string
		budget int
		floor  int
		want   []Range
	}{
		// 6 fetches; fetching per round and per extension window made 12.
		{"default-budget", DefaultStreamBudget, 21000, []Range{{0, 4096}, {4096, 8192},
			{8192, 12288}, {12288, 16384}, {16384, 18692}, {18692, 21000}}},
		{"budget-64", 64, 2500, []Range{{0, 256}, {256, 512}, {512, 768}, {768, 1024},
			{1024, 1280}, {1280, 1536}, {1536, 1792}, {1792, 2048}, {2048, 2304}, {2304, 2560},
			{2560, 2780}, {2780, 3000}}},
		// Rounded down to one chunk, as the extension's windows were.
		{"budget-1000", 1000, 4000, []Range{{0, 256}, {256, 512}, {512, 768}, {768, 1024},
			{1024, 1280}, {1280, 1536}, {1536, 1792}, {1792, 2048}, {2048, 2304}, {2304, 2560},
			{2560, 2816}, {2816, 3072}, {3072, 3328}, {3328, 3584}, {3584, 3792}, {3792, 4000}}},
	} {
		for _, serve := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/serve=%v", tc.name, serve), func(t *testing.T) {
				var mu sync.Mutex
				var got []Range
				camp := NewCampaign(tr, model, root)
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
				cfg := cfg
				cfg.StreamBudget = tc.budget
				conv, err := camp.ConvergeCtx(context.Background(), cfg, tc.floor, nil)
				if err != nil {
					t.Fatal(err)
				}
				const rpub = 3000
				used := max(rpub, tc.floor)
				if conv.Runs != rpub || conv.Summary.N() != used {
					t.Fatalf("runs %d, summary %d; want %d and %d", conv.Runs, conv.Summary.N(), rpub, used)
				}
				slices.SortFunc(got, func(a, b Range) int { return a.Lo - b.Lo })
				if !slices.Equal(got, tc.want) {
					t.Errorf("fetched %v, want %v", got, tc.want)
				}

				runs := collect(t, tr, model, used, root, 1)
				if serve {
					for i := range runs {
						runs[i] = served(i)
					}
				}
				ref := stats.NewStreamingSummary(tc.budget)
				for _, span := range []Range{{0, 1000}, {1000, 2000}, {2000, rpub}, {rpub, used}} {
					if span.Lo == rpub {
						ref.IID()
					}
					for lo := span.Lo; lo < span.Hi; lo += streamChunk {
						ref.Push(runs[lo:min(lo+streamChunk, span.Hi)])
					}
				}
				if !reflect.DeepEqual(conv.Summary, ref) {
					t.Fatal("summary differs from one fed the same runs in 512-run chunks")
				}
			})
		}
	}
}
