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
	"sync"
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
	// Increment is the number of runs added per convergence round; it
	// must be positive.
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
// trace, the platform model, the trace compiled once for that model, and the
// root seed that fixes the run sequence (run i replays under
// rng.Stream(Root, i)), so a converged summary and its extension are
// prefixes of one sample. Every worker goroutine replays the same
// CompiledTrace, and each engine keeps only its private per-seed scratch;
// engines outlive a collection on the campaign's free list. A Campaign is
// safe for concurrent use.
type Campaign struct {
	Trace    trace.Trace
	Model    proc.Model
	Compiled *proc.CompiledTrace
	Root     uint64

	// fetch and shards, when set, collect every run range in shards on
	// remote workers before the local engines fill the failed ones. See
	// SetRemote.
	fetch  func(ctx context.Context, r Range) ([]float64, error)
	shards int

	mu   sync.Mutex
	idle []*proc.Engine // engines no collection holds, for the next one
}

// Range is a half-open run-index interval [Lo, Hi) of a campaign.
type Range struct {
	Lo, Hi int
}

// SetRemote distributes every subsequent collection window of the
// campaign's searches: each window is cut into shards contiguous index ranges,
// fetch is called for all of them concurrently, and every shard whose fetch
// fails, returns other than Hi-Lo runs or returns a NaN or infinite run is
// recomputed by the local engines. fetch must return runs r.Lo..r.Hi-1 of
// the campaign in run order; because run i depends only on (Root, i), it
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
// collections, convergence searches and extensions rooted at root.
func NewCampaign(tr trace.Trace, model proc.Model, root uint64) *Campaign {
	return &Campaign{Trace: tr, Model: model, Compiled: proc.Compile(tr, model), Root: root}
}

// engine hands one worker an engine: an idle one from the free list, or a
// new one with private replay scratch around the shared compilation. The
// worker returns it with release when its collection ends. A plain
// mutex-guarded list, not a sync.Pool, so that a collection's allocations
// do not depend on the garbage collector's timing.
func (c *Campaign) engine() *proc.Engine {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		eng := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return eng
	}
	c.mu.Unlock()
	eng := proc.NewEngine(c.Model)
	eng.SetCompiled(c.Compiled, c.Trace)
	return eng
}

// release returns an engine that engine handed out to the free list.
func (c *Campaign) release(eng *proc.Engine) {
	c.mu.Lock()
	c.idle = append(c.idle, eng)
	c.mu.Unlock()
}

// collectInto fills dst with runs offset..offset+len(dst)-1 of the
// campaign. Without a remote fetch it is collectLocal. With one it cuts
// the n = len(dst) runs into k = min(max(shards, 1), n) contiguous shards,
// shard i covering offset+i*n/k up to offset+(i+1)*n/k, fetches them
// concurrently and recomputes the failed ones locally in index order, which
// yields the same bytes either way. report, when non-nil, receives the
// count of runs collected so far, offset included.
func (c *Campaign) collectInto(ctx context.Context, dst []float64, offset, workers int,
	report func(done int)) error {
	if c.fetch == nil {
		return c.collectLocal(ctx, dst, offset, workers, report)
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
			if err != nil || len(runs) != r.Hi-r.Lo || !allFinite(runs) {
				// Cancellation aborts the campaign; any other failure (peer
				// down, foreign config, short reply, a run no replay can
				// produce) only demotes this shard to the local engines.
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
	if report != nil && done > offset {
		report(done)
	}
	for i, r := range shards {
		if !failed[i] {
			continue
		}
		var rep func(int)
		if report != nil {
			base := done
			rep = func(d int) { report(base + (d - r.Lo)) }
		}
		if err := c.collectLocal(ctx, dst[r.Lo-offset:r.Hi-offset], r.Lo, workers, rep); err != nil {
			return err
		}
		done += r.Hi - r.Lo
	}
	return nil
}

// allFinite reports whether every run is finite. A replay's run is a cycle
// count, but a shard reply carries any bit pattern.
func allFinite(runs []float64) bool {
	for _, x := range runs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// collectLocal fills dst with runs offset..offset+len(dst)-1 of the
// campaign, fanning the blocks out over workers goroutines. Workers
// pull fixed-size blocks from a shared counter, so load balances even when
// per-run cost varies; between blocks they check ctx and report progress
// (done counts completed runs across the whole campaign, offset included).
// It is the in-process reference arm of the distributed collection pair.
//
//pubtac:reference distributed
func (c *Campaign) collectLocal(ctx context.Context, dst []float64, offset, workers int,
	report func(done int)) error {
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
	body := func(ctx context.Context) error {
		eng := c.engine()
		defer c.release(eng)
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
			eng.CampaignInto(c.Trace, dst[lo:hi], c.Root, offset+lo)
			if report != nil {
				report(int(done.Add(int64(hi - lo))))
			}
		}
	}
	if workers == 1 {
		return body(ctx)
	}
	// Workers share the atomic block cursor, so dst slots are filled by
	// index regardless of which worker claims which block: results stay
	// bit-identical at any worker count. The group only coordinates
	// lifetime and propagates the first (ctx-derived) error.
	g, gctx := pool.WithContext(ctx)
	g.SetLimit(workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error { return body(gctx) })
	}
	return g.Wait()
}

// Estimate is a fitted pWCET model plus its diagnostics.
type Estimate struct {
	Curve evt.Curve    // the pWCET curve (exponential tail)
	Tail  *evt.ExpTail // the underlying fit
	// View is the sample summary snapshot behind the estimate: size, min,
	// max, exact upper tail and (possibly sketch-resolved) body ranks.
	// Always non-nil.
	View stats.SampleView
	IID  stats.IIDReport
	CV   evt.CVTest

	full *stats.FullSummary // the summary fitted, nil for streaming estimates
}

// Sample decodes the execution-time sample the estimate was fitted on, in
// run order, into a fresh slice: the first Runs() runs of its full
// summary, which may have grown since. It returns nil for streaming
// estimates (Config.Streaming), which by design do not retain the sample;
// use View for the quantities that remain.
func (e *Estimate) Sample() []float64 {
	if e.full == nil {
		return nil
	}
	return e.full.Prefix(e.View.N())
}

// ErrSampleTooSmall mirrors evt.ErrSampleTooSmall at this layer.
var ErrSampleTooSmall = errors.New("mbpta: sample too small for a pWCET estimate")

// NewEstimate fits a pWCET model to sample under cfg. The resulting curve
// is the standard MBPTA composite: empirical ECCDF within the measured
// range, exponential-tail extrapolation beyond it. The tail threshold is
// selected by the CV criterion, scanning candidate tail sizes from
// cfg.TailCount up to a fifth of the sample. sample is in run order (the
// i.i.d. battery, here the one-shot reference, needs it); it is pushed into
// a full summary, which keeps its own compact copy that Sample decodes.
func NewEstimate(sample []float64, cfg Config) (*Estimate, error) {
	sum := stats.NewFullSummary(false)
	sum.Push(sample)
	return NewEstimateSummary(sum, cfg)
}

// NewEstimateSummary fits a pWCET model to the sample behind a
// stats.SampleSummary and reports its admissibility battery: the tail fit,
// CV test, composite curve and battery all read the summary, so the one
// entry point serves both the retained-sample reference arm and the
// bounded-memory streaming arm. The estimate holds an immutable snapshot of
// the summary; the caller may keep pushing runs into it afterwards.
func NewEstimateSummary(sum stats.SampleSummary, cfg Config) (*Estimate, error) {
	est, err := fit(sum, cfg)
	if err != nil {
		return nil, err
	}
	est.IID = sum.IID()
	return est, nil
}

// fit is NewEstimateSummary without the battery: the tail fit, CV test and
// composite curve, all a convergence round reads.
func fit(sum stats.SampleSummary, cfg Config) (*Estimate, error) {
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
	}
	if fs, ok := sum.(*stats.FullSummary); ok {
		est.full = fs
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
	Runs      int  // runs at convergence (R_pub / R_orig)
	Rounds    int  // convergence rounds taken
	Converged bool // false when MaxRuns was hit first
	// Estimate is the estimate on the first Runs runs, battery included:
	// the search's last fit, whose battery is reported before any run past
	// Runs is pushed.
	Estimate *Estimate

	// Summary holds the first max(Runs, floor) runs of the campaign, for
	// the floor ConvergeCtx was given: grown across the convergence rounds,
	// then by the runs up to the floor. It is a stats.FullSummary (the
	// sample as dictionary codes, per-value counts and the sorted view
	// rebuilt from them) by default, a bounded-memory
	// stats.StreamingSummary under Config.Streaming. A caller whose floor
	// lies past Runs (package core, when TAC demands more runs than MBPTA
	// needed) estimates on it with NewEstimateSummary.
	Summary stats.SampleSummary
}

// ConvergeCtx grows the measurement campaign until the probe pWCET
// stabilizes: starting from InitialRuns, it adds Increment runs per round
// and declares convergence after StableRounds consecutive rounds where the
// pWCET at StabilityProb moves by less than StabilityEps relatively. It
// returns the run count MBPTA needs on this program — the paper's R_pub
// (pubbed programs) or R_orig (original programs). Every round's workers
// replay the one shared compilation.
//
// floor is a run count the caller needs whatever the search decides
// (package core passes TAC's R_tac, capped by the campaign cap; 0 asks for
// none). The returned Summary holds max(Runs, floor) runs: after the
// search, runs Runs..floor-1 are pushed as an extension of the converged
// summary would push them. The search reads its runs from a read-ahead
// that collects, in windows, every run already known to be needed — runs
// [0, floor) and the rounds the search is certain to take, 3,000 runs up
// front under DefaultConfig — and keeps the next window in flight while
// the search pushes and fits the current one. So no run is collected twice
// or beyond that need; only an error return leaves collected runs
// unpushed. progress counts collected runs against the known need: at
// least floor from the first report, raised after each unstable round.
// done never decreases, and the calls are serialized.
//
// A round only fits: the probe reads the curve, never the i.i.d. battery,
// so the battery is reported once, on the estimate of the first Runs runs.
func (c *Campaign) ConvergeCtx(ctx context.Context, cfg Config, floor int, progress Progress) (*Convergence, error) {
	if cfg.InitialRuns < 20 {
		return nil, fmt.Errorf("mbpta: InitialRuns %d too small", cfg.InitialRuns)
	}
	if cfg.Increment <= 0 {
		return nil, fmt.Errorf("mbpta: Increment %d not positive", cfg.Increment)
	}
	if floor < 0 {
		return nil, fmt.Errorf("mbpta: floor %d negative", floor)
	}
	// The summary is grown in place: each round pushes only its increment.
	// A full summary encodes it and rebuilds its sorted view from per-value
	// counts, so a round's estimation cost is O(inc + d) for d distinct
	// values instead of a full O(n log n) re-sort; a streaming summary
	// sorts the increment into its reservoir, O(K + inc·log inc), and its
	// memory never grows past the budget.
	sum := NewSummary(cfg)
	ra := c.readAhead(ctx, sum, cfg.Workers, progress, max(floor, cfg.certain(cfg.InitialRuns)))
	defer ra.close()
	if err := ra.push(sum, cfg.InitialRuns); err != nil {
		return nil, err
	}
	est, err := fit(sum, cfg)
	if err != nil {
		return nil, err
	}
	prev := est.PWCET(cfg.StabilityProb)
	stable, rounds, converged := 0, 0, false
	for !converged && sum.N() < cfg.MaxRuns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Extend deterministically: the new runs use seeds n..n+inc-1.
		if err := ra.push(sum, cfg.Increment); err != nil {
			return nil, err
		}
		rounds++
		if est, err = fit(sum, cfg); err != nil {
			return nil, err
		}
		cur := est.PWCET(cfg.StabilityProb)
		if relDiff(cur, prev) <= cfg.StabilityEps {
			stable++ // one of the rounds the need already counts
			converged = stable >= cfg.StableRounds
		} else {
			stable = 0
			ra.raise(cfg.certain(sum.N()))
		}
		prev = cur
	}
	est.IID = sum.IID()
	conv := &Convergence{Runs: sum.N(), Rounds: rounds, Converged: converged, Estimate: est, Summary: sum}
	if err := ra.push(sum, floor-sum.N()); err != nil {
		return nil, err
	}
	return conv, nil
}

// certain returns the sample size a search is certain to reach from n runs
// before its first round or after an unstable one: it takes
// max(StableRounds, 1) more rounds, each while the sample is below
// MaxRuns. A stable round that does not converge leaves the size where
// the last unstable round put it.
func (cfg Config) certain(n int) int {
	if n >= cfg.MaxRuns {
		return n
	}
	rounds := min(max(cfg.StableRounds, 1), (cfg.MaxRuns-n-1)/cfg.Increment+1)
	return n + rounds*cfg.Increment
}

// NewSummary builds the sample summary a campaign under cfg accumulates
// into: streaming (bounded memory) when cfg.Streaming, otherwise the
// full-sample reference summary with the one-pass i.i.d. battery.
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

// readAhead collects the runs one search already needs ahead of its
// pushes. need counts the runs known to be needed; the windows tile the
// runs from the summary's size up to end <= need, in run order, and a
// window is collected by collectInto (fanned out over workers, or over
// shards with a remote collector: one fetch per shard per window). A full
// summary's window is the whole known need that is not yet collected; a
// streaming summary's is at most its budget's run count, rounded down to
// whole streamChunk pushes and at least one, so it holds at most two
// windows — the one being pushed and the one in flight — plus, when a push
// straddles the two, one chunk of scratch. At most one window is in
// flight, collected through a pool group while the search pushes and fits;
// the next goes in flight when the search lands the previous one, or when
// the need grows while none is in flight. Every size is a deterministic
// function of the pushes and the needs, so the windows are the same at any
// worker or shard count. Only the search's goroutine calls its methods,
// except report, which collectors call.
type readAhead struct {
	c        *Campaign
	ctx      context.Context
	stop     context.CancelFunc
	workers  int
	window   int // runs per window; 0 (a full summary) for the whole need
	progress Progress

	pos     int       // the next run to take
	cur     []float64 // runs pos.., collected and not yet taken
	buf     []float64 // the window cur lies in
	spare   []float64 // a drained window's buffer, for the next one
	end     int       // runs collected or in flight
	flight  *pool.Group
	landing []float64 // the buffer of the window in flight
	scratch []float64 // a take that straddles windows

	mu   sync.Mutex // guards need and done; orders progress calls
	need int
	done int // the largest collected count reported
}

// readAhead starts a read-ahead of the campaign's runs after sum's first
// sum.N(), for a search that needs need runs in all so far.
func (c *Campaign) readAhead(ctx context.Context, sum stats.SampleSummary, workers int,
	progress Progress, need int) *readAhead {
	ctx, stop := context.WithCancel(ctx)
	ra := &readAhead{c: c, ctx: ctx, stop: stop, workers: workers, progress: progress,
		pos: sum.N(), end: sum.N()}
	if st, ok := sum.(*stats.StreamingSummary); ok {
		ra.window = max(st.Budget()/streamChunk, 1) * streamChunk
	}
	ra.raise(need)
	return ra
}

// raise lifts the known need to need runs and, if no window is in flight,
// puts the next one in flight.
func (ra *readAhead) raise(need int) {
	if need > ra.need {
		ra.mu.Lock()
		ra.need = need
		ra.mu.Unlock()
	}
	if ra.flight == nil {
		ra.launch()
	}
}

// launch puts the next window in flight, if the need reaches past end.
func (ra *readAhead) launch() {
	lo, hi := ra.end, ra.need
	if ra.window > 0 {
		hi = min(hi, lo+ra.window)
	}
	if hi <= lo {
		return
	}
	buf := ra.spare
	ra.spare = nil
	if cap(buf) < hi-lo {
		buf = make([]float64, hi-lo)
	}
	buf = buf[:hi-lo]
	var report func(int)
	if ra.progress != nil {
		report = ra.report
	}
	g, gctx := pool.WithContext(ra.ctx)
	g.Go(func() error { return ra.c.collectInto(gctx, buf, lo, ra.workers, report) })
	ra.flight, ra.landing, ra.end = g, buf, hi
}

// land waits for the window in flight, makes it the current one and puts
// the next in flight. The current window must be drained.
func (ra *readAhead) land() error {
	err := ra.flight.Wait()
	ra.flight = nil
	if err != nil {
		return err
	}
	ra.spare, ra.buf = ra.buf, ra.landing
	ra.cur, ra.landing = ra.landing, nil
	ra.launch()
	return nil
}

// take returns the next n runs, valid until the next take. The raise is a
// no-op for a search, whose need covers every take; it keeps a take from
// waiting on a window nobody put in flight.
func (ra *readAhead) take(n int) ([]float64, error) {
	ra.raise(ra.pos + n)
	ra.pos += n
	if len(ra.cur) == 0 {
		if err := ra.land(); err != nil {
			return nil, err
		}
	}
	if len(ra.cur) >= n {
		out := ra.cur[:n]
		ra.cur = ra.cur[n:]
		return out, nil
	}
	// The take straddles windows: copy it out before the drained buffer is
	// collected into again.
	out := ra.scratch[:0]
	for {
		k := min(n-len(out), len(ra.cur))
		out = append(out, ra.cur[:k]...)
		ra.cur = ra.cur[k:]
		if len(out) == n {
			break
		}
		if err := ra.land(); err != nil {
			return nil, err
		}
	}
	ra.scratch = out
	return out, nil
}

// push takes the next add runs and pushes them into sum in run order: as
// one push into a full summary, streamChunk runs at a time into a
// streaming one (its window is set), with chunks counted from the first
// run. Both rules are the ones the parent pushes were cut by, so the
// summary state is bit-identical at any window schedule.
func (ra *readAhead) push(sum stats.SampleSummary, add int) error {
	chunk := add
	if ra.window > 0 {
		chunk = streamChunk
	}
	for done := 0; done < add; done += chunk {
		b, err := ra.take(min(chunk, add-done))
		if err != nil {
			return err
		}
		sum.Push(b) // summaries copy what they keep; the window is reused
	}
	return nil
}

// report forwards a collector's count of collected runs to the progress
// sink, with the known need as target. Collectors call it concurrently;
// the lock, held across the sink, drops a count that arrives after a
// larger one, so done never decreases.
func (ra *readAhead) report(done int) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if done > ra.done {
		ra.done = done
		ra.progress(done, ra.need)
	}
}

// close cancels the window in flight, if any, and waits for it: a search
// leaves no collector running, whichever way it returns.
func (ra *readAhead) close() {
	ra.stop()
	if ra.flight != nil {
		_ = ra.flight.Wait() // cancelled; its runs are never pushed
		ra.flight = nil
	}
}

// CollectRangeCtx returns runs [lo, hi) of the campaign in run order: the
// one way to read raw runs, for a shard worker or a plain sample. Because
// run i depends only on (Root, i), concatenating the runs of consecutive
// ranges reproduces the single-process sample bit-identically at any shard
// count, in any estimation mode. The range is collected with workers local
// workers; the remote collector is deliberately not consulted, so a worker
// can never re-shard its shard.
func (c *Campaign) CollectRangeCtx(ctx context.Context, lo, hi, workers int,
	progress Progress) ([]float64, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("mbpta: invalid run range [%d, %d)", lo, hi)
	}
	var report func(int)
	if progress != nil {
		report = func(done int) { progress(done, hi) }
	}
	runs := make([]float64, hi-lo)
	if err := c.collectLocal(ctx, runs, lo, workers, report); err != nil {
		return nil, err
	}
	return runs, nil
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
