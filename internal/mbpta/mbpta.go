// Package mbpta implements measurement-based probabilistic timing analysis:
// it collects execution-time samples on the randomized platform, checks the
// statistical admissibility of the sample (i.i.d. battery, exponentiality of
// the tail), determines the number of runs needed for the estimate to
// converge, and produces pWCET curves via extreme value theory.
//
// The package provides the two run counts the paper distinguishes:
//
//   - R_pub (or R_orig): the number of runs MBPTA itself needs for the
//     pWCET estimate to stabilize (Campaign.ConvergeCtx);
//   - R_pub+tac: the maximum of R_pub and TAC's minimum (the caller takes
//     the max; see package core).
package mbpta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"pubtac/internal/evt"
	"pubtac/internal/pool"
	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

// Config tunes the analysis. Start from DefaultConfig.
type Config struct {
	// InitialRuns is the starting sample size (the MBPTA literature's
	// conventional minimum is a few hundred runs).
	InitialRuns int
	// Increment is the number of runs added per convergence round.
	Increment int
	// MaxRuns caps the convergence loop.
	MaxRuns int
	// TailCount is the number of maxima used for the exponential tail fit.
	TailCount int
	// StabilityEps is the maximum relative change of the probe pWCET
	// between consecutive rounds for the estimate to count as stable.
	StabilityEps float64
	// StabilityProb is the probed exceedance probability for convergence.
	StabilityProb float64
	// StableRounds is how many consecutive stable rounds are required.
	StableRounds int
	// Alpha is the significance level of the i.i.d. battery.
	Alpha float64
	// Workers bounds campaign parallelism; 0 means GOMAXPROCS.
	Workers int
	// Streaming switches convergence searches and campaign extensions to
	// the bounded-memory stats.StreamingSummary: peak estimation-layer
	// memory is O(StreamBudget) regardless of the run count, at the
	// documented accuracy trade (exact tail fit while the auto-fit window
	// fits the reservoir, sketch-resolved battery median and body
	// quantiles). Estimates no longer retain the sample.
	Streaming bool
	// StreamBudget is the streaming memory budget K (reservoir size,
	// sketch buckets, battery retention); 0 means DefaultStreamBudget.
	StreamBudget int
}

// DefaultStreamBudget is the streaming budget used when Config.Streaming is
// set without an explicit StreamBudget: large enough that the auto-fit
// search window (n/5) stays inside the exact reservoir up to n ≈ 40k runs,
// while bounding the estimation layer to a few hundred KiB per path.
const DefaultStreamBudget = 8192

// EffectiveStreamBudget returns the streaming budget a campaign under c
// runs with: 0 when c is not streaming, else StreamBudget (or
// DefaultStreamBudget when it is <= 0) floored at stats.MinStreamBudget.
// Configs with the same effective budget produce the same results, so this
// is also the value cache keys hash.
func (c Config) EffectiveStreamBudget() int {
	if !c.Streaming {
		return 0
	}
	b := c.StreamBudget
	if b <= 0 {
		b = DefaultStreamBudget
	}
	return max(b, stats.MinStreamBudget)
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		InitialRuns:   1000,
		Increment:     1000,
		MaxRuns:       300000,
		TailCount:     10,
		StabilityEps:  0.02,
		StabilityProb: 1e-12,
		StableRounds:  2,
		Alpha:         0.05,
		Workers:       0,
	}
}

// Progress observes campaign growth: done runs collected so far out of the
// target (the target can grow across convergence rounds). Implementations
// must be safe for concurrent calls; a nil Progress reports nothing.
type Progress func(done, target int)

// collectBlock is the work-stealing granularity of parallel campaigns: a
// worker simulates this many runs between cancellation checks and progress
// reports. Small enough to cancel a campaign within milliseconds, large
// enough that the atomic dispatch cost is invisible next to a trace replay.
// It is a multiple of proc.BatchK so every replay block is full (the engine
// replays BatchK seeds per pass over a cache's IDs; a shorter block costs a
// full block's placement work).
const collectBlock = 8 * proc.BatchK

// Campaign is one measurement campaign's shared, immutable inputs: the
// trace, the platform model, and the trace compiled once for that model.
// Every worker goroutine of every collection and convergence round replays
// the same CompiledTrace — compilation is paid once per analyzed path, and
// each engine keeps only its private per-seed scratch. A Campaign is safe
// for concurrent use.
type Campaign struct {
	Trace    trace.Trace
	Model    proc.Model
	Compiled *proc.CompiledTrace

	// fetch and shards, when set, collect every run range in shards on
	// remote workers before the local engines fill the failed ones. See
	// SetRemote.
	fetch  func(ctx context.Context, r Range) ([]float64, error)
	shards int

	// referenceIID is a test seam: convergence searches on a full-sample
	// summary recompute the one-shot stats.CheckIID battery every round
	// instead of maintaining the incremental one. Results are identical;
	// the equivalence tests set it to compare the two batteries.
	referenceIID bool
}

// Range is a half-open run-index interval [Lo, Hi) of a campaign.
type Range struct {
	Lo, Hi int
}

// SetRemote distributes every subsequent collection (convergence rounds,
// extensions, CollectCtx) of the campaign: each range is cut into shards
// contiguous index ranges, fetch is called for all of them concurrently,
// and every shard whose fetch fails or returns other than Hi-Lo runs is
// recomputed by the local engines. fetch must return runs r.Lo..r.Hi-1 of
// the campaign in run order; because run i depends only on (root, i), it
// does not matter who computes a run, only that it lands in slot i.
// collectLocal is the reference arm: with any fetch — even one that fails
// every shard — results are bit-identical to a campaign that never left the
// process, which is the distributed oracle-pair contract. SetRemote must be
// called before the campaign is shared between goroutines; a nil fetch
// restores purely local collection.
//
//pubtac:fastpath distributed
func (c *Campaign) SetRemote(fetch func(ctx context.Context, r Range) ([]float64, error), shards int) {
	c.fetch, c.shards = fetch, shards
}

// NewCampaign compiles tr for the model once, for any number of subsequent
// collections, convergence searches and extensions.
func NewCampaign(tr trace.Trace, model proc.Model) *Campaign {
	return &Campaign{Trace: tr, Model: model, Compiled: proc.Compile(tr, model)}
}

// newEngine builds one worker's engine: private replay scratch around the
// shared compilation.
func (c *Campaign) newEngine() *proc.Engine {
	eng := proc.NewEngine(c.Model)
	eng.SetCompiled(c.Compiled, c.Trace)
	return eng
}

// Collect runs tr n times on the model with seeds derived from root and
// returns execution times in run order. Runs are distributed over Workers
// goroutines; the result is identical to a sequential campaign because run i
// depends only on (root, i).
func Collect(tr trace.Trace, model proc.Model, n int, root uint64, workers int) []float64 {
	times, _ := NewCampaign(tr, model).CollectCtx(context.Background(), n, root, workers, nil)
	return times
}

// CollectCtx runs the campaign n times with seeds derived from root and
// returns execution times in run order. It stops promptly (returning
// ctx.Err and a partially filled sample) when ctx is cancelled, and reports
// completed runs through progress as blocks finish.
func (c *Campaign) CollectCtx(ctx context.Context, n int, root uint64,
	workers int, progress Progress) ([]float64, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	times := make([]float64, n)
	err := c.collectInto(ctx, times, root, 0, workers, progress, n)
	return times, err
}

// collectInto fills dst with runs offset..offset+len(dst)-1 of the campaign
// rooted at root. Without a remote fetch it is collectLocal. With one it cuts
// the n = len(dst) runs into k = min(max(shards, 1), n) contiguous shards,
// shard i covering offset+i*n/k up to offset+(i+1)*n/k, fetches them
// concurrently and recomputes the failed ones locally in index order, which
// yields the same bytes either way.
func (c *Campaign) collectInto(ctx context.Context, dst []float64, root uint64,
	offset, workers int, progress Progress, target int) error {
	if c.fetch == nil {
		return c.collectLocal(ctx, dst, root, offset, workers, progress, target)
	}
	n := len(dst)
	k := min(max(c.shards, 1), n)
	shards := make([]Range, k)
	failed := make([]bool, k)
	g, gctx := pool.WithContext(ctx)
	g.SetLimit(k)
	for i := range shards {
		r := Range{Lo: offset + i*n/k, Hi: offset + (i+1)*n/k}
		shards[i] = r
		g.Go(func() error {
			runs, err := c.fetch(gctx, r)
			if err != nil || len(runs) != r.Hi-r.Lo {
				// Cancellation aborts the campaign; any other failure (peer
				// down, foreign config, short reply) only demotes this
				// shard to the local engines.
				if cerr := gctx.Err(); cerr != nil {
					return cerr
				}
				failed[i] = true
				return nil
			}
			copy(dst[r.Lo-offset:r.Hi-offset], runs)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	// Progress stays monotone: done first credits every fetched run, then
	// each recomputed shard, onto which collectLocal's per-block reports
	// are rebased from the shard-local count.
	done := offset + n
	for i, r := range shards {
		if failed[i] {
			done -= r.Hi - r.Lo
		}
	}
	if progress != nil && done > offset {
		progress(done, target)
	}
	for i, r := range shards {
		if !failed[i] {
			continue
		}
		var p Progress
		if progress != nil {
			base := done
			p = func(d, tgt int) { progress(base+(d-r.Lo), tgt) }
		}
		if err := c.collectLocal(ctx, dst[r.Lo-offset:r.Hi-offset], root, r.Lo, workers, p, target); err != nil {
			return err
		}
		done += r.Hi - r.Lo
	}
	return nil
}

// collectLocal fills dst with runs offset..offset+len(dst)-1 of the campaign
// rooted at root, fanning the blocks out over workers goroutines. Workers
// pull fixed-size blocks from a shared counter, so load balances even when
// per-run cost varies; between blocks they check ctx and report progress
// (done counts completed runs across the whole campaign, offset included).
// It is the in-process reference arm of the distributed collection pair.
//
//pubtac:reference distributed
func (c *Campaign) collectLocal(ctx context.Context, dst []float64, root uint64,
	offset, workers int, progress Progress, target int) error {
	n := len(dst)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + collectBlock - 1) / collectBlock; workers > max {
		workers = max
	}
	var next, done atomic.Int64
	done.Store(int64(offset))
	body := func(ctx context.Context, eng *proc.Engine) error {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := int(next.Add(collectBlock)) - collectBlock
			if lo >= n {
				return nil
			}
			hi := lo + collectBlock
			if hi > n {
				hi = n
			}
			eng.CampaignInto(c.Trace, dst[lo:hi], root, offset+lo)
			if progress != nil {
				progress(int(done.Add(int64(hi-lo))), target)
			}
		}
	}
	if workers == 1 {
		return body(ctx, c.newEngine())
	}
	// Workers share the atomic block cursor, so dst slots are filled by
	// index regardless of which worker claims which block: results stay
	// bit-identical at any worker count. The group only coordinates
	// lifetime and propagates the first (ctx-derived) error.
	g, gctx := pool.WithContext(ctx)
	g.SetLimit(workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error { return body(gctx, c.newEngine()) })
	}
	return g.Wait()
}

// Estimate is a fitted pWCET model plus its diagnostics.
type Estimate struct {
	Curve evt.Curve    // the pWCET curve (exponential tail)
	Tail  *evt.ExpTail // the underlying fit
	// Sample is the execution-time sample used, in run order. It is nil
	// for streaming estimates (Config.Streaming), which by design do not
	// retain the sample; use View for the quantities that remain.
	Sample []float64
	// View is the sample summary snapshot behind the estimate: size, min,
	// max, exact upper tail and (possibly sketch-resolved) body ranks.
	// Always non-nil.
	View stats.SampleView
	IID  stats.IIDReport
	CV   evt.CVTest
}

// ErrSampleTooSmall mirrors evt.ErrSampleTooSmall at this layer.
var ErrSampleTooSmall = errors.New("mbpta: sample too small for a pWCET estimate")

// NewEstimate fits a pWCET model to sample under cfg. The resulting curve
// is the standard MBPTA composite: empirical ECCDF within the measured
// range, exponential-tail extrapolation beyond it. The tail threshold is
// selected by the CV criterion, scanning candidate tail sizes from
// cfg.TailCount up to a fifth of the sample. sample is in run order (the
// i.i.d. battery, here the one-shot reference, needs it); it is pushed into
// a full summary, which keeps its own copy.
func NewEstimate(sample []float64, cfg Config) (*Estimate, error) {
	sum := stats.NewFullSummary(false)
	sum.Push(sample)
	return NewEstimateSummary(sum, cfg)
}

// NewEstimateSummary fits a pWCET model to the sample behind a
// stats.SampleSummary: the tail fit, CV test, composite curve and
// admissibility battery all read the summary, so the one entry point serves
// both the retained-sample reference arm and the bounded-memory streaming
// arm. The estimate holds an immutable snapshot of the summary; the caller
// may keep pushing runs into it afterwards.
func NewEstimateSummary(sum stats.SampleSummary, cfg Config) (*Estimate, error) {
	v := sum.View()
	tail, cv, err := evt.FitExpTailAutoSummary(v, cfg.TailCount, v.N()/5)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSampleTooSmall, err)
	}
	est := &Estimate{
		Curve: evt.NewSummaryComposite(v, tail),
		Tail:  tail,
		View:  v,
		CV:    cv,
		IID:   sum.IID(),
	}
	if fs, ok := sum.(*stats.FullSummary); ok {
		est.Sample = fs.Sample()
	}
	return est, nil
}

// PWCET returns the pWCET estimate at per-run exceedance probability p.
func (e *Estimate) PWCET(p float64) float64 { return e.Curve.ValueAt(p) }

// Runs returns the sample size behind the estimate.
func (e *Estimate) Runs() int { return e.View.N() }

// MaxObserved returns the largest observed execution time — exact in every
// mode, including streaming estimates that retain no sample.
func (e *Estimate) MaxObserved() float64 { return e.View.Max() }

// Admissible reports whether the sample passed the i.i.d. battery at the
// given significance level.
func (e *Estimate) Admissible(alpha float64) bool { return e.IID.Passed(alpha) }

// Convergence is the result of the run-count search.
type Convergence struct {
	Runs      int       // runs at convergence (R_pub / R_orig)
	Rounds    int       // convergence rounds taken
	Converged bool      // false when MaxRuns was hit first
	Estimate  *Estimate // estimate at the final sample size

	// Summary is the sample summary maintained across convergence rounds:
	// a stats.FullSummary (retained sample + merged sorted view +
	// battery) by default, a bounded-memory stats.StreamingSummary under
	// Config.Streaming. Callers extending the campaign (package core)
	// push new runs into it via ExtendSummaryCtx and re-estimate with
	// NewEstimateSummary instead of recollecting or re-sorting.
	Summary stats.SampleSummary
}

// ConvergeCtx grows the measurement campaign until the probe pWCET
// stabilizes: starting from InitialRuns, it adds Increment runs per round
// and declares convergence after StableRounds consecutive rounds where the
// pWCET at StabilityProb moves by less than StabilityEps relatively. It
// returns the run count MBPTA needs on this program — the paper's R_pub
// (pubbed programs) or R_orig (original programs). The progress target
// grows by Increment per round until the estimate stabilizes, so target is
// a moving lower bound on the final run count. Every round's workers replay
// the one shared compilation.
func (c *Campaign) ConvergeCtx(ctx context.Context, cfg Config,
	root uint64, progress Progress) (*Convergence, error) {
	if cfg.InitialRuns < 20 {
		return nil, fmt.Errorf("mbpta: InitialRuns %d too small", cfg.InitialRuns)
	}
	// The summary is maintained incrementally: each round pushes only its
	// increment (sorting the increment, merging it into the sorted view or
	// reservoir, pushing the battery), so the per-round estimation cost is
	// O(n + inc·log inc) instead of a full O(n log n) re-sort and
	// O(n·lags) battery re-scan — and O(K + inc·log inc) with a streaming
	// summary, whose memory never grows past the budget.
	sum := NewSummary(cfg)
	if c.referenceIID && !cfg.Streaming {
		sum = stats.NewFullSummary(false)
	}
	if err := c.pushRuns(ctx, sum, cfg.InitialRuns, root, cfg.Workers, progress); err != nil {
		return nil, err
	}
	est, err := NewEstimateSummary(sum, cfg)
	if err != nil {
		return nil, err
	}
	prev := est.PWCET(cfg.StabilityProb)
	stable := 0
	rounds := 0
	for sum.N() < cfg.MaxRuns {
		// Extend deterministically: the new runs use seeds n..n+inc-1.
		if err := c.pushRuns(ctx, sum, cfg.Increment, root, cfg.Workers, progress); err != nil {
			return nil, err
		}
		rounds++
		est, err = NewEstimateSummary(sum, cfg)
		if err != nil {
			return nil, err
		}
		cur := est.PWCET(cfg.StabilityProb)
		if relDiff(cur, prev) <= cfg.StabilityEps {
			stable++
			if stable >= cfg.StableRounds {
				return &Convergence{Runs: sum.N(), Rounds: rounds, Converged: true, Estimate: est, Summary: sum}, nil
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return &Convergence{Runs: sum.N(), Rounds: rounds, Converged: false, Estimate: est, Summary: sum}, nil
}

// NewSummary builds the sample summary a campaign under cfg accumulates
// into: streaming (bounded memory) when cfg.Streaming, otherwise the
// full-sample reference summary with the incremental i.i.d. battery.
func NewSummary(cfg Config) stats.SampleSummary {
	if cfg.Streaming {
		return stats.NewStreamingSummary(cfg.EffectiveStreamBudget())
	}
	return stats.NewFullSummary(true)
}

// streamChunk is the push granularity of streaming campaigns: runs are
// pushed chunk by chunk, so no round ever materializes its full increment.
// It is a fixed multiple of collectBlock: the streaming battery dichotomizes
// each chunk at the then-current sketch median, so the chunk size is part of
// the battery's definition and must not vary with worker count, round size
// or collection window.
const streamChunk = 8 * collectBlock

// pushRuns collects the next add runs of the campaign (runs sum.N() ..
// sum.N()+add-1, index-addressed as always) and pushes them into sum in run
// order, one collection window at a time. Collection within a window fans
// out over workers, or over shards with a remote collector (one fetch per
// shard per window); windows and their chunks are pushed sequentially, and
// both sizes are a deterministic function of the summary, so the summary
// state is bit-identical at any worker or shard count.
//
// A full summary takes the whole range as one window and one chunk (it
// retains the sample anyway, and one merged sort per round is cheapest). A
// streaming summary pushes streamChunk runs at a time and collects windows
// of its budget's run count, rounded down to whole chunks and at least one,
// so the collection buffer stays within max(budget, streamChunk) runs. Chunk
// boundaries are relative to the pushed sequence and windows are whole
// chunks, so the chunks are the same whatever the window.
func (c *Campaign) pushRuns(ctx context.Context, sum stats.SampleSummary, add int,
	root uint64, workers int, progress Progress) error {
	if add <= 0 {
		return ctx.Err()
	}
	offset := sum.N()
	target := offset + add
	window, chunk := add, add
	if st, ok := sum.(*stats.StreamingSummary); ok {
		window = min(max(st.Budget()/streamChunk, 1)*streamChunk, add)
		chunk = streamChunk
	}
	buf := make([]float64, window)
	for done := 0; done < add; {
		b := buf[:min(window, add-done)]
		if err := c.collectInto(ctx, b, root, offset+done, workers, progress, target); err != nil {
			return err
		}
		for lo := 0; lo < len(b); lo += chunk {
			sum.Push(b[lo:min(lo+chunk, len(b))]) // summaries copy what they keep; buf is reused
		}
		done += len(b)
	}
	return nil
}

// CollectRangeCtx collects the shard [lo, hi) of the campaign rooted at
// root and returns its runs in run order — the worker half of distributed
// campaign sharding. Because run i depends only on (root, i), concatenating
// the runs of consecutive ranges in index order reproduces the
// single-process sample bit-identically at any shard count, and a
// coordinator in any estimation mode (streaming included) pushes the
// concatenated raw runs into its own summary. The range is collected with
// workers local workers; the campaign's remote collector is deliberately
// not consulted, so a worker can never re-shard its shard.
func (c *Campaign) CollectRangeCtx(ctx context.Context, lo, hi int,
	root uint64, workers int, progress Progress) ([]float64, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("mbpta: invalid run range [%d, %d)", lo, hi)
	}
	runs := make([]float64, hi-lo)
	if err := c.collectLocal(ctx, runs, root, lo, workers, progress, hi); err != nil {
		return nil, err
	}
	return runs, nil
}

// ExtendSummaryCtx grows a campaign summary to target runs, collecting and
// pushing runs sum.N()..target-1 of the campaign rooted at root. Because run
// i depends only on (root, i), the summary ends bit-identical to one fed all
// target runs from scratch — callers holding a converged summary (package
// core, when TAC demands more runs than MBPTA needed) extend it instead of
// recollecting.
func (c *Campaign) ExtendSummaryCtx(ctx context.Context, sum stats.SampleSummary,
	target int, root uint64, workers int, progress Progress) error {
	return c.pushRuns(ctx, sum, target-sum.N(), root, workers, progress)
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// Seed derives a reproducible campaign root seed from a name, so that
// experiments identify campaigns by benchmark/input labels.
func Seed(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return rng.Mix64(h)
}
