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
// emitted from campaign workers as simulation blocks complete; Target is
// the currently known run requirement and can grow between events (MBPTA
// convergence extends its own target, and the TAC campaign phase raises it
// to R). A "warning" event flags a statistical admissibility problem —
// currently an i.i.d. battery failure at convergence — with the detail in
// Note; the analysis still completes (the battery is diagnostic, per the
// MBPTA protocol the sample is i.i.d. by construction), but the pWCET
// consumer should know.
type ProgressEvent struct {
	Program string // original program name
	Input   string // input vector selecting the path
	Phase   string // "converge", "campaign", "warning" or "done"
	Done    int    // runs completed so far
	Target  int    // runs currently required
	Note    string // human-readable detail for "warning" events
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

	// Shards is the number of shards per fetched campaign range (a whole
	// collection round, or under streaming estimation one window of the
	// stream budget's run count) when Sharder is set; 0 derives it from
	// Sharder.Shards() (typically the peer count). Also excluded from the
	// canonical encoding.
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
	c.CampaignCap = ScaledRuns(700000, scale, 6000)
	return c
}

// ScaledRuns returns max(min, round(n*scale)): the rounding rule behind
// Scaled, which the experiment generators also apply to their own campaign
// sizes.
func ScaledRuns(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
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

// AnalyzePathCtx runs the full pipeline (Figure 3) on one input vector. A
// cancelled or expired context stops the measurement campaign promptly and
// returns ctx.Err().
func (a *Analyzer) AnalyzePathCtx(ctx context.Context, p *program.Program, in program.Input) (*PathAnalysis, error) {
	if err := a.validateModel(); err != nil {
		return nil, err
	}
	pubbed, rep, err := pub.Transform(p)
	if err != nil {
		return nil, fmt.Errorf("core: PUB failed on %s: %w", p.Name, err)
	}
	return a.analyzeOn(ctx, pubbed, p.Name, in, rep, 0)
}

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
// callback for one (path, phase) pair; nil when no sink is configured.
func (a *Analyzer) progressFn(name, input, phase string) mbpta.Progress {
	sink := a.cfg.Progress
	if sink == nil {
		return nil
	}
	return func(done, target int) {
		sink(ProgressEvent{Program: name, Input: input, Phase: phase, Done: done, Target: target})
	}
}

// analyzeOn runs steps 2-4 on an already-transformed program. workers, when
// positive, overrides cfg.MBPTA.Workers for this path's campaigns (the batch
// engine splits the machine between concurrent paths).
func (a *Analyzer) analyzeOn(ctx context.Context, pubbed *program.Program, name string,
	in program.Input, rep pub.Report, workers int) (*PathAnalysis, error) {

	if workers <= 0 {
		workers = a.cfg.MBPTA.Workers
	}

	res, err := pubbed.Exec(in)
	if err != nil {
		return nil, fmt.Errorf("core: executing pubbed %s(%s): %w", name, in.Name, err)
	}

	// The path's trace is compiled exactly once here; TAC's baseline, every
	// convergence round and the TAC-demanded campaign extension below all
	// replay the one shared CompiledTrace (workers keep only per-seed
	// scratch).
	camp := mbpta.NewCampaign(res.Trace, a.cfg.Model)

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

	root := mbpta.Seed(name+"/"+in.Name) ^ a.cfg.SeedSalt
	// Both the convergence rounds and the TAC-demanded extension below
	// collect through camp, so one distribute covers them all.
	a.distribute(camp, name, in.Name, false, root)
	mcfg := a.cfg.MBPTA
	mcfg.Workers = workers
	conv, err := camp.ConvergeCtx(ctx, mcfg, root,
		a.progressFn(name, in.Name, "converge"))
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
		PubOnly:   conv.Estimate,
	}
	pa.R = pa.RPub
	if pa.RTac > pa.R {
		pa.R = pa.RTac
	}

	pa.RunsUsed = pa.R
	if a.cfg.CampaignCap > 0 && pa.RunsUsed > a.cfg.CampaignCap {
		pa.RunsUsed = a.cfg.CampaignCap
	}
	if pa.RunsUsed <= conv.Runs {
		// The converged sample already covers the requirement.
		pa.Full = conv.Estimate
		pa.RunsUsed = conv.Runs
		a.done(name, in.Name, pa.RunsUsed, conv.Summary)
		return pa, nil
	}
	// TAC demands more runs than MBPTA needed. Campaign run i depends only
	// on (root, i), so the converged sample is exactly the prefix of the
	// R-run campaign: extend the converged summary with runs
	// conv.Runs..R-1 instead of re-simulating the converged prefix from
	// scratch (bit-identical, and the convergence runs are no longer paid
	// for twice). The summary carries the sorted view or reservoir and the
	// i.i.d. battery across the extension in one move.
	err = camp.ExtendSummaryCtx(ctx, conv.Summary, pa.RunsUsed, root,
		workers, a.progressFn(name, in.Name, "campaign"))
	if err != nil {
		return nil, fmt.Errorf("core: campaign on %s(%s): %w", name, in.Name, err)
	}
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
	if err := a.validateModel(); err != nil {
		return nil, err
	}
	res, err := p.Exec(in)
	if err != nil {
		return nil, fmt.Errorf("core: executing %s(%s): %w", p.Name, in.Name, err)
	}
	// Same campaign root as AnalyzePathCtx: for single-path programs (where
	// PUB is innocuous and traces coincide) original and pubbed analyses
	// then see identical samples, removing spurious seed-to-seed noise
	// from PUB-vs-original comparisons.
	root := mbpta.Seed(p.Name+"/"+in.Name) ^ a.cfg.SeedSalt
	mcfg := a.cfg.MBPTA
	if workers > 0 {
		mcfg.Workers = workers
	}
	camp := mbpta.NewCampaign(res.Trace, a.cfg.Model)
	a.distribute(camp, p.Name, in.Name, true, root)
	conv, err := camp.ConvergeCtx(ctx, mcfg, root,
		a.progressFn(p.Name, in.Name, "converge"))
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
