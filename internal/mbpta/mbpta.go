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
	"sort"
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
// replays BatchK seeds per pass over the stream; a shorter block costs a
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

	// remote, when set, collects run ranges on remote workers before the
	// local engines fill whatever is left. See SetRemote.
	remote RangeCollector

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

// RangeCollector fills dst — which holds runs offset..offset+len(dst)-1 of
// the campaign — from somewhere other than the local engines (typically
// remote workers executing CollectRangeCtx for sub-ranges), and returns the
// absolute-index ranges it could NOT fill; the campaign recomputes those
// locally. Because run i depends only on (root, i), it does not matter who
// computes a run, only that slot i-offset ends up holding run i — which is
// why any mix of remote and local collection stays bit-identical to a
// purely local campaign. A RangeCollector should return an error only for
// cancellation or conditions that invalidate the whole campaign; per-shard
// failures are reported as leftover ranges instead (graceful degradation).
type RangeCollector func(ctx context.Context, dst []float64, offset int) ([]Range, error)

// SetRemote installs a remote range collector on the campaign: every
// subsequent collection (convergence rounds, extensions, CollectCtx) first
// offers the full range to rc and computes only the returned leftovers with
// the local engines. collectLocal is the reference arm: with any rc — even
// one that fails every shard — results are bit-identical to a campaign that
// never left the process, which is the distributed oracle-pair contract.
// SetRemote must be called before the campaign is shared between
// goroutines; a nil rc restores purely local collection.
//
//pubtac:fastpath distributed
func (c *Campaign) SetRemote(rc RangeCollector) { c.remote = rc }

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
// rooted at root. Without a remote collector it is collectLocal; with one it
// first offers the whole range to the remote arm and computes the returned
// leftovers locally, which yields the same bytes either way.
func (c *Campaign) collectInto(ctx context.Context, dst []float64, root uint64,
	offset, workers int, progress Progress, target int) error {
	if c.remote == nil {
		return c.collectLocal(ctx, dst, root, offset, workers, progress, target)
	}
	leftover, err := c.remote(ctx, dst, offset)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// The collector failed outright (all peers down, say): degrade to a
		// plain local campaign — correctness never depends on the remote arm.
		return c.collectLocal(ctx, dst, root, offset, workers, progress, target)
	}
	leftover = normalizeRanges(leftover, offset, offset+len(dst))
	remoteFilled := len(dst)
	for _, r := range leftover {
		remoteFilled -= r.Hi - r.Lo
	}
	if progress != nil && remoteFilled > 0 {
		progress(offset+remoteFilled, target)
	}
	// Recompute the leftovers locally, in index order. Progress stays
	// monotone: doneBase credits the remote-filled runs and every completed
	// leftover range, and collectLocal's per-block reports are rebased from
	// the range-local count onto it.
	doneBase := offset + remoteFilled
	for _, r := range leftover {
		sub := dst[r.Lo-offset : r.Hi-offset]
		var p Progress
		if progress != nil {
			base, lo := doneBase, r.Lo
			p = func(done, tgt int) { progress(base+(done-lo), tgt) }
		}
		if err := c.collectLocal(ctx, sub, root, r.Lo, workers, p, target); err != nil {
			return err
		}
		doneBase += r.Hi - r.Lo
	}
	return nil
}

// normalizeRanges clamps ranges to [lo, hi), drops empty ones, sorts by Lo
// and merges overlaps, so a sloppy RangeCollector cannot make collectInto
// recompute a run twice or step outside dst.
func normalizeRanges(rs []Range, lo, hi int) []Range {
	out := rs[:0]
	for _, r := range rs {
		if r.Lo < lo {
			r.Lo = lo
		}
		if r.Hi > hi {
			r.Hi = hi
		}
		if r.Lo < r.Hi {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
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
	// max, exact upper tail and (possibly sketch-resolved) body quantiles.
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
// cfg.TailCount up to a fifth of the sample.
func NewEstimate(sample []float64, cfg Config) (*Estimate, error) {
	return NewEstimateSorted(sample, stats.SortedCopy(sample), cfg)
}

// NewEstimateSorted is NewEstimate for callers that already hold an
// ascending-sorted view of sample. The single sort is shared by every
// candidate tail fit, every CV test, the empirical ECCDF and the runs-test
// median of the i.i.d. battery; sorted is adopted by the estimate and must
// not be modified afterwards. sample stays in run order (the i.i.d. battery
// needs it), and the battery is the one-shot reference.
func NewEstimateSorted(sample, sorted []float64, cfg Config) (*Estimate, error) {
	return NewEstimateSummary(stats.AdoptFullSummary(sample, sorted, nil), cfg)
}

// NewEstimateSummary fits a pWCET model to the sample behind a
// stats.SampleSummary: the tail fit, CV test, composite curve and
// admissibility battery all read the summary, so the one entry point serves
// both the retained-sample reference arm (bit-identical to
// NewEstimateSorted) and the bounded-memory streaming arm. The estimate
// holds an immutable snapshot of the summary; the caller may keep pushing
// runs into it afterwards.
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
		b := cfg.StreamBudget
		if b <= 0 {
			b = DefaultStreamBudget
		}
		return stats.NewStreamingSummary(b)
	}
	return stats.NewFullSummary(true)
}

// streamChunk is the collection granularity of streaming campaigns: runs are
// collected into a reusable buffer of this size and pushed chunk by chunk,
// so no round ever materializes its full increment. It is a fixed multiple
// of collectBlock: the streaming battery dichotomizes each chunk at the
// then-current sketch median, so the chunk size is part of the battery's
// definition and must not vary with worker count or round size.
const streamChunk = 8 * collectBlock

// summaryChunk returns the collection chunk size for a summary: bounded for
// streaming summaries, a whole round at a time otherwise (the full summary
// retains the sample anyway, and one merged sort per round is cheapest).
func summaryChunk(sum stats.SampleSummary) int {
	if _, ok := sum.(*stats.StreamingSummary); ok {
		return streamChunk
	}
	return 0
}

// pushRuns collects the next add runs of the campaign (runs sum.N() ..
// sum.N()+add-1, index-addressed as always) and pushes them into sum in run
// order.
func (c *Campaign) pushRuns(ctx context.Context, sum stats.SampleSummary, add int,
	root uint64, workers int, progress Progress) error {
	return c.pushRangeAt(ctx, sum, sum.N(), add, root, workers, progress)
}

// pushRangeAt collects runs offset..offset+add-1 of the campaign and pushes
// them into sum in run order. Collection within each chunk fans out over
// workers; chunks are pushed sequentially, and the chunk size is a
// deterministic function of the summary type, so the summary state is
// bit-identical at any worker count. Chunk boundaries are relative to the
// pushed sequence, so a summary fed [lo, hi) here matches the [lo, hi)
// sub-sequence of a whole-campaign summary exactly when the summary state is
// chunking-invariant (every full summary; see CollectRangeCtx).
func (c *Campaign) pushRangeAt(ctx context.Context, sum stats.SampleSummary,
	offset, add int, root uint64, workers int, progress Progress) error {
	if add <= 0 {
		return ctx.Err()
	}
	target := offset + add
	chunk := summaryChunk(sum)
	if chunk <= 0 || chunk > add {
		chunk = add
	}
	buf := make([]float64, chunk)
	for done := 0; done < add; {
		m := add - done
		if m > chunk {
			m = chunk
		}
		b := buf[:m]
		if err := c.collectInto(ctx, b, root, offset+done, workers, progress, target); err != nil {
			return err
		}
		sum.Push(b) // summaries copy what they keep; buf is reused
		done += m
	}
	return nil
}

// CollectRangeCtx collects the shard [lo, hi) of the campaign rooted at
// root into a fresh full summary — the worker half of distributed campaign
// sharding. Because run i depends only on (root, i), concatenating the
// per-shard samples of consecutive ranges in index order reproduces the
// single-process sample bit-identically at any shard count, and a
// coordinator in any estimation mode (streaming included) pushes the
// concatenated raw runs into its own summary. Only the sample ships, so the
// summary keeps no incremental battery; its IID is the one-shot reference.
// The range is collected with workers local workers; the campaign's remote
// collector is deliberately not consulted, so a worker can never re-shard
// its shard.
func (c *Campaign) CollectRangeCtx(ctx context.Context, lo, hi int,
	root uint64, workers int, progress Progress) (*stats.FullSummary, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("mbpta: invalid run range [%d, %d)", lo, hi)
	}
	local := &Campaign{Trace: c.Trace, Model: c.Model, Compiled: c.Compiled}
	sum := stats.NewFullSummary(false)
	if err := local.pushRangeAt(ctx, sum, lo, hi-lo, root, workers, progress); err != nil {
		return nil, err
	}
	return sum, nil
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
