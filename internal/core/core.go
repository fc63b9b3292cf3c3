// Package core implements the paper's contribution: the combined, sound
// application of PUB and TAC (Figure 3) that simultaneously achieves full
// path coverage and cache representativeness for MBPTA.
//
// The pipeline for one analysis is:
//
//  1. Apply PUB to the original program, producing the pubbed program whose
//     every path probabilistically upper-bounds every path of the original
//     (Equation 1, Observation 1).
//  2. Pick a path of the pubbed program — any user input vector works
//     (Observation 3) — and collect its address sequence.
//  3. Apply TAC to that sequence, obtaining the minimum number of runs
//     R_tac for cache-layout representativeness.
//  4. Run the pubbed program max(R_pub, R_tac) times, where R_pub is
//     MBPTA's own convergence requirement, and apply MBPTA/EVT to the
//     sample: the resulting pWCET upper-bounds the execution time
//     distribution of every path of the original program under every cache
//     layout occurring with relevant probability (Corollary 1).
//
// AnalyzeBatch applies the pipeline to several input vectors at once; the
// caller takes the per-probability minimum across the resulting curves
// (Corollary 2: every pubbed path's estimate is reliable, so the lowest is
// preferred).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pubtac/internal/cache"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/program"
	"pubtac/internal/pub"
	"pubtac/internal/stats"
	"pubtac/internal/tac"
)

// ProgressEvent reports campaign growth for one analyzed path. Events are
// emitted from campaign workers as simulation blocks complete. One phase,
// "converge", covers every run a path's campaign collects: the MBPTA
// search reads its rounds and the TAC floor, min(R_tac, CampaignCap), from
// one read-ahead, so the runs past R_pub are collected alongside the
// search rather than after it. Done counts runs collected so far and never
// decreases; Target is the known run requirement, at least that floor
// from the first event, and grows after each unstable convergence round. A
// "warning" event flags a statistical admissibility problem — currently
// an i.i.d. battery failure at convergence — with the detail in Note; the
// analysis still completes (the battery is diagnostic, per the MBPTA
// protocol the sample is i.i.d. by construction), but the pWCET consumer
// should know. A "done" event ends the path.
type ProgressEvent struct {
	Program string // original program name
	Input   string // input vector selecting the path
	Phase   string // "converge", "warning" or "done"
	Done    int    // runs collected so far
	Target  int    // runs currently required
	Note    string // human-readable detail for "warning" and "done" events
}

// Config assembles the knobs of the full pipeline.
type Config struct {
	Model proc.Model
	MBPTA mbpta.Config
	TAC   tac.Config

	// CampaignCap bounds the number of runs actually simulated (0 = no
	// cap). Reported run requirements (RPub, RTac, R) are not affected;
	// only the measured sample is truncated. Use it to scale experiments
	// down from paper-size campaigns.
	CampaignCap int

	// SeedSalt is XORed into every campaign root seed, giving sessions
	// statistically independent campaigns without touching the per-path
	// seed derivation. Zero reproduces the historical seeds.
	SeedSalt uint64

	// Progress, when non-nil, receives campaign progress events. It may be
	// called concurrently from campaign workers and must be cheap.
	Progress func(ProgressEvent)

	// IIDHardFail promotes an inadmissible i.i.d. battery from a progress
	// warning to an analysis error wrapping ErrIIDInadmissible. Off by
	// default: the battery is diagnostic (campaign runs draw independent
	// seeds), but certification-style workflows may refuse to ship a pWCET
	// whose sample failed its own admissibility checks.
	IIDHardFail bool

	// Sharder, when non-nil, distributes campaign collection: every
	// campaign range is split into shards dispatched through it (remote
	// pubtacd workers, via the client package), with failed shards
	// recomputed locally. Results are bit-identical to a purely local
	// analysis — who computes run i never matters, only that slot i holds
	// run i — so Sharder, like Progress and the worker counts, is excluded
	// from the canonical encoding and shares cache keys with local runs.
	Sharder ShardCollector

	// Shards is the number of shards per fetched collection window (the
	// whole known run requirement not yet collected, or under streaming
	// estimation at most the stream budget's run count) when Sharder is
	// set; 0 derives it from Sharder.Shards() (typically the peer count).
	// Also excluded from the canonical encoding.
	Shards int
}

// DefaultConfig returns the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		Model: proc.DefaultModel(),
		MBPTA: mbpta.DefaultConfig(),
		TAC:   tac.DefaultConfig(),
	}
}

// CampaignRoot is the one root derivation: the salted root seed of the
// campaigns of program on input vector input, pubbed and original alike.
// Shard workers refuse a ShardSpec of another Root.
func (c Config) CampaignRoot(program, input string) uint64 {
	return mbpta.Seed(program+"/"+input) ^ c.SeedSalt
}

// Scaled returns the configuration with every campaign knob multiplied by
// scale — MBPTA's initial runs, increment and convergence ceiling, floored
// at usable minimums — and the campaign cap set to the scaled equivalent
// of the evaluation's 7×10^5-run campaign. This is the one scaling policy;
// the public Session options and the experiment generators both use it, so
// their campaigns stay in lockstep at equal scales.
func (c Config) Scaled(scale float64) Config {
	c.MBPTA.InitialRuns = ScaledRuns(c.MBPTA.InitialRuns, scale, 200)
	c.MBPTA.Increment = ScaledRuns(c.MBPTA.Increment, scale, 200)
	c.MBPTA.MaxRuns = ScaledRuns(c.MBPTA.MaxRuns, scale, 4000)
	c.CampaignCap = ScaledRuns(evaluationRuns, scale, 6000)
	return c
}

// evaluationRuns is the evaluation's campaign size, the campaign cap at
// scale 1.0.
const evaluationRuns = 700000

// CheckScale refuses a campaign scale that Scaled cannot use: NaN, a scale
// not > 0, or one at which the 7×10^5-run campaign overflows an int (+Inf
// included). Scaled would floor the first two to the minimum campaign and
// clamp the last at math.MaxInt runs.
func CheckScale(scale float64) error { return CheckScaleRuns(scale, evaluationRuns) }

// CheckScaleRuns is CheckScale for a caller whose largest campaign, at scale
// 1.0, is runs runs: it refuses NaN, a scale not > 0, and one at which
// runs·scale overflows an int.
func CheckScaleRuns(scale float64, runs int) error {
	if !(scale > 0) || float64(runs)*scale >= float64(math.MaxInt) {
		return fmt.Errorf("campaign scale %v: want a finite scale > 0 at which a %d-run campaign stays within int range", scale, runs)
	}
	return nil
}

// ScaledRuns returns max(min, round(n*scale)), clamped at math.MaxInt when
// the product overflows an int: the rounding rule behind Scaled, which the
// experiment generators also apply to their own campaign sizes. It never
// returns less than the rounded product; a NaN product gives min.
func ScaledRuns(n int, scale float64, min int) int {
	v := math.Round(float64(n) * scale)
	switch {
	case !(v > float64(min)):
		return min
	case v >= float64(math.MaxInt):
		return math.MaxInt
	}
	return int(v)
}

// Analyzer runs PUB+TAC analyses on programs.
type Analyzer struct {
	cfg Config
}

// New returns an Analyzer for the configuration.
func New(cfg Config) *Analyzer { return &Analyzer{cfg: cfg} }

// PathAnalysis is the outcome of the pipeline on one pubbed path.
type PathAnalysis struct {
	Program string        // original program name
	Input   program.Input // the input vector selecting the path
	Path    string        // path signature in the pubbed program

	PubReport pub.Report    // PUB transformation statistics
	TAC       *tac.Analysis // TAC result on the pubbed path's trace

	RPub int // runs required by MBPTA convergence on the pubbed path
	RTac int // runs required by TAC
	R    int // max(RPub, RTac): the campaign size of the analysis

	RunsUsed int             // runs actually simulated (after CampaignCap)
	PubOnly  *mbpta.Estimate // estimate from the R_pub-run sample
	Full     *mbpta.Estimate // estimate from the RunsUsed-run sample (PUB+TAC)
}

// PWCET returns the PUB+TAC pWCET estimate at exceedance probability p.
func (pa *PathAnalysis) PWCET(p float64) float64 { return pa.Full.PWCET(p) }

// validateModel rejects a cache geometry the replay cannot build, before
// an analysis entry point spends anything on PUB or replay.
func (a *Analyzer) validateModel() error {
	for _, c := range []struct {
		name string
		cfg  cache.Config
	}{{"IL1", a.cfg.Model.IL1}, {"DL1", a.cfg.Model.DL1}} {
		if err := c.cfg.Validate(); err != nil {
			return fmt.Errorf("core: model %s: %w", c.name, err)
		}
	}
	return nil
}

// progressFn adapts the configured event sink to mbpta's per-campaign
// callback for one path; nil when no sink is configured.
func (a *Analyzer) progressFn(name, input string) mbpta.Progress {
	sink := a.cfg.Progress
	if sink == nil {
		return nil
	}
	return func(done, target int) {
		sink(ProgressEvent{Program: name, Input: input, Phase: "converge", Done: done, Target: target})
	}
}

// analyzeOn runs steps 2-4 on an already-transformed program. workers, when
// positive, overrides cfg.MBPTA.Workers for this path's campaigns (the batch
// engine splits the machine between concurrent paths). TAC runs before the
// first campaign run, so the campaign's floor, min(R_tac, CampaignCap), is
// known when MBPTA's search starts: the search collects runs [0, floor)
// with its own rounds, in windows read ahead of its pushes, and returns
// the summary of max(R_pub, floor) runs. No run is collected twice.
func (a *Analyzer) analyzeOn(ctx context.Context, pubbed *program.Program, name string,
	in program.Input, rep pub.Report, workers int) (*PathAnalysis, error) {

	if workers <= 0 {
		workers = a.cfg.MBPTA.Workers
	}

	res, err := pubbed.Exec(in)
	if err != nil {
		return nil, fmt.Errorf("core: executing pubbed %s(%s): %w", name, in.Name, err)
	}

	// The path's trace is compiled exactly once here; TAC's baseline and
	// every collection window of the search below replay the one shared
	// CompiledTrace (workers keep only per-seed scratch), and all of them
	// read the runs of the one root.
	camp := mbpta.NewCampaign(res.Trace, a.cfg.Model, a.cfg.CampaignRoot(name, in.Name))

	// TAC's parallel group evaluation rides the path's simulation worker
	// share (the same pool budget the campaigns use) unless the TAC config
	// pins its own count. Results are worker-count independent.
	tcfg := a.cfg.TAC
	if tcfg.Workers == 0 {
		tcfg.Workers = WorkerBudget(workers)
	}
	ta, err := tac.AnalyzeCompiled(res.Trace, camp.Compiled, a.cfg.Model, tcfg)
	if err != nil {
		return nil, fmt.Errorf("core: TAC on %s(%s): %w", name, in.Name, err)
	}

	// The campaign runs max(R_pub, R_tac) times, capped by CampaignCap but
	// never below R_pub. Campaign run i depends only on (camp.Root, i), so
	// the converged sample is exactly the prefix of that campaign, and the
	// runs past R_pub are pushed into the converged summary, carrying its
	// run codes and counts, or its reservoir and sketch, and the i.i.d.
	// battery's state in one move.
	floor := ta.MinRuns
	if a.cfg.CampaignCap > 0 {
		floor = min(floor, a.cfg.CampaignCap)
	}
	a.distribute(camp, name, in.Name, false)
	mcfg := a.cfg.MBPTA
	mcfg.Workers = workers
	conv, err := camp.ConvergeCtx(ctx, mcfg, floor, a.progressFn(name, in.Name))
	if err != nil {
		return nil, fmt.Errorf("core: MBPTA convergence on %s(%s): %w", name, in.Name, err)
	}
	if err := a.checkIID(name, in.Name, "convergence", conv.Estimate, conv.Runs); err != nil {
		return nil, err
	}

	pa := &PathAnalysis{
		Program:   name,
		Input:     in,
		Path:      res.Path,
		PubReport: rep,
		TAC:       ta,
		RPub:      conv.Runs,
		RTac:      ta.MinRuns,
		R:         max(conv.Runs, ta.MinRuns),
		RunsUsed:  conv.Summary.N(),
		PubOnly:   conv.Estimate,
		Full:      conv.Estimate,
	}
	if pa.RunsUsed > conv.Runs {
		full, err := mbpta.NewEstimateSummary(conv.Summary, a.cfg.MBPTA)
		if err != nil {
			return nil, fmt.Errorf("core: estimating %s(%s): %w", name, in.Name, err)
		}
		pa.Full = full
		// The shipped pWCET is built on the extended sample; if its battery
		// fails where the convergence-time one passed, that deserves its own
		// warning (a failing convergence battery already warned above).
		if conv.Estimate.IID.Passed(a.cfg.MBPTA.Alpha) {
			if err := a.checkIID(name, in.Name, "campaign extension", full, pa.RunsUsed); err != nil {
				return nil, err
			}
		}
	}
	a.done(name, in.Name, pa.RunsUsed, conv.Summary)
	return pa, nil
}

// done emits the terminal progress event for one path; the note carries the
// estimation layer's peak retained memory (the quantity Config.MBPTA's
// Streaming mode bounds), so progress sinks can surface it.
func (a *Analyzer) done(name, input string, runs int, sum stats.SampleSummary) {
	if a.cfg.Progress != nil {
		note := ""
		if sum != nil {
			note = fmt.Sprintf("estimation memory: peak %d B", sum.PeakBytes())
		}
		a.cfg.Progress(ProgressEvent{Program: name, Input: input, Phase: "done", Done: runs, Target: runs, Note: note})
	}
}

// ErrIIDInadmissible reports an i.i.d. battery that failed its
// admissibility checks under Config.IIDHardFail. Test with errors.Is; the
// wrapping error carries the program, input, phase and per-test p-values.
var ErrIIDInadmissible = errors.New("i.i.d. battery inadmissible")

// checkIID surfaces an inadmissible i.i.d. battery through the progress
// sink — at convergence, and again should the TAC-demanded campaign
// extension's battery fail after a passing convergence (the shipped pWCET
// is built on the extended sample). The battery is diagnostic — campaign
// runs draw independent seeds, so failures indicate a fit problem or
// sheer chance at the configured significance, not a protocol violation —
// but silently attaching a pWCET to a sample that failed its own
// admissibility checks is the kind of thing a certification reviewer
// should see. Under Config.IIDHardFail the warning is promoted to an
// error wrapping ErrIIDInadmissible (the progress event still fires, so
// sinks observe the failure before the analysis aborts).
func (a *Analyzer) checkIID(name, input, when string, est *mbpta.Estimate, runs int) error {
	if est == nil {
		return nil
	}
	r := est.IID
	alpha := a.cfg.MBPTA.Alpha
	if r.Passed(alpha) {
		return nil
	}
	detail := fmt.Sprintf(
		"i.i.d. battery inadmissible at %s (alpha=%.3g: runs p=%.3g, ljung-box p=%.3g, ks p=%.3g)",
		when, alpha, r.Runs.PValue, r.LjungBox.PValue, r.Identical.PValue)
	if a.cfg.Progress != nil {
		a.cfg.Progress(ProgressEvent{
			Program: name, Input: input, Phase: "warning",
			Done: runs, Target: runs,
			Note: detail,
		})
	}
	if a.cfg.IIDHardFail {
		return fmt.Errorf("core: %s(%s): %s: %w", name, input, detail, ErrIIDInadmissible)
	}
	return nil
}

// OriginalAnalysis is plain MBPTA on the unmodified program: the paper's
// baseline R_orig ("applying neither TAC nor PUB, so only determined by
// MBPTA") used by Table 2 and Figure 5.
type OriginalAnalysis struct {
	Program  string
	Input    program.Input
	Path     string
	ROrig    int
	Estimate *mbpta.Estimate
}

// AnalyzeOriginalCtx measures the original program with plain MBPTA,
// cancellably. workers, when positive, overrides cfg.MBPTA.Workers for this
// campaign.
func (a *Analyzer) AnalyzeOriginalCtx(ctx context.Context, p *program.Program,
	in program.Input, workers int) (*OriginalAnalysis, error) {
	if p == nil {
		return nil, errors.New("core: nil program")
	}
	if err := a.validateModel(); err != nil {
		return nil, err
	}
	res, err := p.Exec(in)
	if err != nil {
		return nil, fmt.Errorf("core: executing %s(%s): %w", p.Name, in.Name, err)
	}
	mcfg := a.cfg.MBPTA
	if workers > 0 {
		mcfg.Workers = workers
	}
	// Same campaign root as the pubbed analysis: for single-path programs
	// (where PUB is innocuous and traces coincide) original and pubbed
	// analyses then see identical samples, removing spurious seed-to-seed
	// noise from PUB-vs-original comparisons.
	camp := mbpta.NewCampaign(res.Trace, a.cfg.Model, a.cfg.CampaignRoot(p.Name, in.Name))
	a.distribute(camp, p.Name, in.Name, true)
	conv, err := camp.ConvergeCtx(ctx, mcfg, 0, a.progressFn(p.Name, in.Name))
	if err != nil {
		return nil, err
	}
	if err := a.checkIID(p.Name, in.Name, "convergence", conv.Estimate, conv.Runs); err != nil {
		return nil, err
	}
	a.done(p.Name, in.Name, conv.Runs, conv.Summary)
	return &OriginalAnalysis{
		Program:  p.Name,
		Input:    in,
		Path:     res.Path,
		ROrig:    conv.Runs,
		Estimate: conv.Estimate,
	}, nil
}
