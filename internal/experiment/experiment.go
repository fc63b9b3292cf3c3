// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 3.3 and Section 4) from the simulator. Each generator
// returns typed rows/series that cmd/tables, cmd/figures and the repository
// benchmarks print.
//
// Campaign sizes scale with Options.Scale: 1.0 reproduces paper-sized
// campaigns (10^6-run ECCDFs, full R_pub+tac campaigns), smaller values
// shrink every campaign proportionally while keeping the analytic outputs
// (TAC run counts, probabilities) exact.
package experiment

import (
	"context"
	"fmt"
	"math"

	"pubtac/internal/core"
	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/pool"
	"pubtac/internal/proc"
	"pubtac/internal/program"
	"pubtac/internal/stats"
	"pubtac/internal/tac"
)

// Options control experiment size and determinism.
type Options struct {
	// Scale multiplies every campaign size (1.0 = paper size).
	Scale float64
	// Workers bounds total simulation parallelism across a generator's
	// concurrent campaigns (0 = GOMAXPROCS). Every generator honors it
	// uniformly; outputs are identical at any worker count.
	Workers int
}

// The plain campaigns the figure generators collect, in runs at scale 1.0
// (the paper's sizes), beside the analyses' campaigns that
// core.Config.Scaled sizes.
const (
	figure1Runs = 200000
	figure2Runs = 1000000 // per path
	// figure4RefRuns is Figure 4's reference ECCDF, the largest campaign
	// of any generator.
	figure4RefRuns = 6000000
)

// CheckScale refuses a scale at which a generator cannot scale its largest
// campaign, Figure 4's 6×10^6-run reference: NaN, a scale not > 0, or one at
// which that campaign overflows an int. It refuses every scale
// core.CheckScale refuses, whose 7×10^5-run campaign is smaller.
func CheckScale(scale float64) error { return core.CheckScaleRuns(scale, figure4RefRuns) }

// AnalyzerConfig builds the core configuration for the options, using the
// shared core scaling policy so experiment campaigns match Session
// campaigns at equal scales.
func (o Options) AnalyzerConfig() core.Config {
	cfg := core.DefaultConfig().Scaled(o.Scale)
	cfg.MBPTA.Workers = o.Workers
	return cfg
}

// Table1Row is one row of Table 1: the bs execution-time domain for one
// max-iteration input vector.
type Table1Row struct {
	Input    string  // v1, v3, ..., v15
	RPubK    float64 // R_pub in thousands
	RPTK     float64 // R_pub+tac in thousands
	PWCETPub float64 // pWCET@1e-12 with R_pub runs (PUB column)
	PWCETPT  float64 // pWCET@1e-12 with R_pub+tac runs (P+T column)
}

// Table1 regenerates Table 1: for each of bs's 8 maximum-iteration input
// vectors, the required runs and the pWCET at 10^-12 with PUB only versus
// PUB+TAC. The 8 paths are analyzed concurrently over the batch engine.
func Table1(ctx context.Context, opts Options) ([]Table1Row, error) {
	b := malardalen.BS()
	a := core.New(opts.AnalyzerConfig())
	batch, err := a.AnalyzeBatch(ctx,
		[]core.Job{{Program: b.Program, Inputs: malardalen.BSMaxIterationInputs(b)}}, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	rows := make([]Table1Row, len(batch[0]))
	for i, pa := range batch[0] {
		rows[i] = Table1Row{
			Input:    pa.Input.Name,
			RPubK:    float64(pa.RPub) / 1000,
			RPTK:     float64(pa.R) / 1000,
			PWCETPub: pa.PubOnly.PWCET(1e-12),
			PWCETPT:  pa.Full.PWCET(1e-12),
		}
	}
	return rows, nil
}

// Table2Row is one row of Table 2: run requirements for one benchmark.
type Table2Row struct {
	Benchmark string
	ROrigK    float64 // plain MBPTA on the original program (thousands)
	RPubK     float64 // MBPTA convergence on the pubbed program (thousands)
	RPTK      float64 // PUB+TAC requirement (thousands)
}

// Table2 regenerates Table 2: R_orig, R_pub and R_pub+tac for all 11
// benchmarks with their default input sets. The 22 campaigns (original and
// pubbed per benchmark) are fanned out over one bounded pool.
func Table2(ctx context.Context, opts Options) ([]Table2Row, error) {
	a := core.New(opts.AnalyzerConfig())
	bms := malardalen.All()
	origs, pubs, err := originalsAndPaths(ctx, a, bms, core.WorkerBudget(opts.Workers))
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	rows := make([]Table2Row, len(bms))
	for i, b := range bms {
		rows[i] = Table2Row{
			Benchmark: b.Name,
			ROrigK:    float64(origs[i].ROrig) / 1000,
			RPubK:     float64(pubs[i].RPub) / 1000,
			RPTK:      float64(pubs[i].R) / 1000,
		}
	}
	return rows, nil
}

// originalsAndPaths runs, for every benchmark, plain MBPTA on the original
// program and the PUB+TAC pipeline on the default path, all over one pool
// bounded by the total worker budget.
func originalsAndPaths(ctx context.Context, a *core.Analyzer, bms []*malardalen.Benchmark,
	budget int) ([]*core.OriginalAnalysis, []*core.PathAnalysis, error) {
	origs := make([]*core.OriginalAnalysis, len(bms))
	pubs := make([]*core.PathAnalysis, len(bms))
	outer, inner := pool.SplitWorkers(budget, 2*len(bms))
	g, ctx := pool.WithContext(ctx)
	g.SetLimit(outer)
	for i, b := range bms {
		i, b := i, b
		g.Go(func() error {
			oa, err := a.AnalyzeOriginalCtx(ctx, b.Program, b.Default(), inner)
			if err != nil {
				return fmt.Errorf("%s (orig): %w", b.Name, err)
			}
			origs[i] = oa
			return nil
		})
		g.Go(func() error {
			batch, err := a.AnalyzeBatch(ctx,
				[]core.Job{{Program: b.Program, Inputs: []program.Input{b.Default()}}}, inner)
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			pubs[i] = batch[0][0]
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, nil, err
	}
	return origs, pubs, nil
}

// Series is a named ECCDF curve.
type Series struct {
	Name   string
	Points []stats.ECCDFPoint
}

// Figure1 generates the didactic pWCET/pETd picture of Figure 1(a): the
// empirical execution-time distribution of a small synthetic program on the
// randomized platform, and the pWCET curve upper-bounding it.
func Figure1(ctx context.Context, opts Options) ([]Series, error) {
	b := malardalen.CNT()
	res := b.Program.MustExec(b.Default())
	n := core.ScaledRuns(figure1Runs, opts.Scale, 4000)
	camp := mbpta.NewCampaign(res.Trace, proc.DefaultModel(), mbpta.Seed("fig1"))
	sample, err := camp.CollectRangeCtx(ctx, 0, n, opts.Workers, nil)
	if err != nil {
		return nil, err
	}
	est, err := mbpta.NewEstimate(sample, mbpta.DefaultConfig())
	if err != nil {
		return nil, err
	}
	etd := stats.NewECDF(sample)
	curve := Series{Name: "pWCET"}
	for _, pt := range etd.Points() {
		if pt.Prob == 0 {
			continue
		}
		curve.Points = append(curve.Points, stats.ECCDFPoint{
			Value: est.Curve.ValueAt(pt.Prob), Prob: pt.Prob,
		})
	}
	// Extend the pWCET curve beyond the sample.
	for _, p := range []float64{1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
		curve.Points = append(curve.Points, stats.ECCDFPoint{Value: est.Curve.ValueAt(p), Prob: p})
	}
	return []Series{{Name: "pETd", Points: etd.Points()}, curve}, nil
}

// Figure2 regenerates Figure 2: the ECCDFs of bs's 8 original
// maximum-iteration paths and of the corresponding 8 pubbed paths; every
// pubbed curve upper-bounds every original curve. The paper uses 10^6 runs
// per path. The 16 campaigns are fanned out over one bounded pool.
func Figure2(ctx context.Context, opts Options) ([]Series, error) {
	b := malardalen.BS()
	pubbed, _, err := pubTransform(b)
	if err != nil {
		return nil, err
	}
	runs := core.ScaledRuns(figure2Runs, opts.Scale, 3000)
	model := proc.DefaultModel()
	inputs := malardalen.BSMaxIterationInputs(b)
	out := make([]Series, 2*len(inputs))
	outer, inner := pool.SplitWorkers(core.WorkerBudget(opts.Workers), len(out))
	g, ctx := pool.WithContext(ctx)
	g.SetLimit(outer)
	for i, in := range inputs {
		i, in := i, in
		// Each path's trace is compiled once; the campaign workers inside
		// CollectRangeCtx share the compilation.
		g.Go(func() error {
			orig := b.Program.MustExec(in)
			sample, err := mbpta.NewCampaign(orig.Trace, model, mbpta.Seed("fig2/orig/"+in.Name)).
				CollectRangeCtx(ctx, 0, runs, inner, nil)
			if err != nil {
				return err
			}
			out[i] = Series{Name: "orig/" + in.Name, Points: stats.NewECDF(sample).Points()}
			return nil
		})
		g.Go(func() error {
			pr := pubbed.MustExec(in)
			sample, err := mbpta.NewCampaign(pr.Trace, model, mbpta.Seed("fig2/pub/"+in.Name)).
				CollectRangeCtx(ctx, 0, runs, inner, nil)
			if err != nil {
				return err
			}
			out[len(inputs)+i] = Series{Name: "pub/" + in.Name, Points: stats.NewECDF(sample).Points()}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure4Result holds the Figure 4 artifacts for bs input v9: the reference
// ECCDF (6e6 runs in the paper), and the pWCET curves obtained with R_pub
// and with R_pub+tac runs.
type Figure4Result struct {
	Reference Series // large-campaign ECCDF of the pubbed v9 path
	PubCurve  Series // pWCET from R_pub runs
	PTCurve   Series // pWCET from R_pub+tac runs
	RPub      int
	RPT       int
}

// Figure4 regenerates Figure 4. With only R_pub runs the abrupt ECCDF knee
// caused by a low-probability cache placement is missed; with R_pub+tac
// runs it is captured and the pWCET upper-bounds it.
func Figure4(ctx context.Context, opts Options) (*Figure4Result, error) {
	b := malardalen.BS()
	a := core.New(opts.AnalyzerConfig())
	in, err := b.Input("v9")
	if err != nil {
		return nil, err
	}
	batch, err := a.AnalyzeBatch(ctx, []core.Job{{Program: b.Program, Inputs: []program.Input{in}}}, opts.Workers)
	if err != nil {
		return nil, err
	}
	pa := batch[0][0]
	pubbed, _, err := pubTransform(b)
	if err != nil {
		return nil, err
	}
	res := pubbed.MustExec(in)
	refRuns := core.ScaledRuns(figure4RefRuns, opts.Scale, 20000)
	ref, err := mbpta.NewCampaign(res.Trace, proc.DefaultModel(), mbpta.Seed("fig4/ref")).
		CollectRangeCtx(ctx, 0, refRuns, opts.Workers, nil)
	if err != nil {
		return nil, err
	}

	out := &Figure4Result{
		Reference: Series{Name: "ECCDF(6M-scaled)", Points: stats.NewECDF(ref).Points()},
		RPub:      pa.RPub,
		RPT:       pa.R,
	}
	out.PubCurve = curveSeries("pWCET(Rpub)", pa.PubOnly)
	out.PTCurve = curveSeries("pWCET(Rp+t)", pa.Full)
	return out, nil
}

func curveSeries(name string, est *mbpta.Estimate) Series {
	s := Series{Name: name}
	for _, exp := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		p := math.Pow(10, -exp)
		s.Points = append(s.Points, stats.ECCDFPoint{Value: est.PWCET(p), Prob: p})
	}
	return s
}

// Figure5Row is one bar group of Figure 5: pWCET estimates of PUB and
// PUB+TAC normalized to the plain-MBPTA estimate on the original program.
type Figure5Row struct {
	Benchmark string
	PubRatio  float64 // pWCET(PUB) / pWCET(orig) at 1e-12
	PTRatio   float64 // pWCET(PUB+TAC) / pWCET(orig) at 1e-12
}

// Figure5 regenerates Figure 5 for all 11 benchmarks, fanning the 22
// campaigns out over one bounded pool.
func Figure5(ctx context.Context, opts Options) ([]Figure5Row, error) {
	a := core.New(opts.AnalyzerConfig())
	bms := malardalen.All()
	origs, pubs, err := originalsAndPaths(ctx, a, bms, core.WorkerBudget(opts.Workers))
	if err != nil {
		return nil, fmt.Errorf("figure5: %w", err)
	}
	rows := make([]Figure5Row, len(bms))
	for i, b := range bms {
		base := origs[i].Estimate.PWCET(1e-12)
		rows[i] = Figure5Row{
			Benchmark: b.Name,
			PubRatio:  pubs[i].PubOnly.PWCET(1e-12) / base,
			PTRatio:   pubs[i].Full.PWCET(1e-12) / base,
		}
	}
	return rows, nil
}

// Section31Result reproduces the two worked examples of Section 3.1.
type Section31Result struct {
	ROrig311 int // {ABCA}^1000      -> 0 extra runs
	RPub311  int // {ABCDEA}^1000    -> ~84873
	ROrig312 int // {ABCDEA}^1000    -> ~84873
	RPub312  int // {ABCDEFA}^1000   -> ~14137
}

// Section31 recomputes the worked examples with TAC on the 8-set 4-way
// cache of Section 3.1.
func Section31() (*Section31Result, error) {
	cacheCfg := proc.DefaultModel()
	cacheCfg.IL1.Sets, cacheCfg.IL1.Ways = 8, 4
	cacheCfg.DL1.Sets, cacheCfg.DL1.Ways = 8, 4
	cfg := tac.DefaultConfig()
	runs := func(letters string) (int, error) {
		tr := repeatLetters(letters, 1000)
		an, err := tac.Analyze(tr, cacheCfg, cfg)
		if err != nil {
			return 0, err
		}
		return an.MinRuns, nil
	}
	var out Section31Result
	var err error
	if out.ROrig311, err = runs("ABCA"); err != nil {
		return nil, err
	}
	if out.RPub311, err = runs("ABCDEA"); err != nil {
		return nil, err
	}
	out.ROrig312 = out.RPub311
	if out.RPub312, err = runs("ABCDEFA"); err != nil {
		return nil, err
	}
	return &out, nil
}
