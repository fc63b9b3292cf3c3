package pubtac_test

// Benchmark harness: one benchmark per table/figure of the paper, plus
// ablation benchmarks for the main design decisions. Experiment benchmarks
// run scaled-down campaigns (the Scale constant below); use cmd/tables and
// cmd/figures with -scale for larger reproductions.

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/cache"
	"pubtac/internal/core"
	"pubtac/internal/evt"
	"pubtac/internal/experiment"
	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/pub"
	"pubtac/internal/rng"
	"pubtac/internal/serve"
	"pubtac/internal/stats"
	"pubtac/internal/tac"
	"pubtac/internal/trace"
)

// benchScale keeps experiment regeneration tractable inside `go test
// -bench`.
const benchScale = 0.002

func benchOpts() experiment.Options { return experiment.Options{Scale: benchScale} }

// BenchmarkTable1 regenerates Table 1 (bs execution-time domain).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (runs for MBPTA, PUB, PUB+TAC).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table2(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1(a) (pWCET vs pETd).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure1(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (bs original vs pubbed ECCDFs).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure2(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (bs v9, Rpub vs Rp+t).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (pWCET of PUB and PUB+TAC relative
// to plain MBPTA).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection31 recomputes the Section 3.1 worked examples (pure TAC
// analysis, no campaigns).
func BenchmarkSection31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Section31()
		if err != nil {
			b.Fatal(err)
		}
		if r.RPub311 != 84873 || r.RPub312 != 14137 {
			b.Fatalf("unexpected results: %+v", r)
		}
	}
}

// BenchmarkBatchVsSerial contrasts the Session batch engine against the
// serial per-benchmark loop on the full 11-benchmark campaign at
// Workers = GOMAXPROCS. Both arms run identical campaigns (results are
// bit-identical); the batch arm fans the paths out over one pool, hiding
// each path's serial sections (estimate fitting, TAC) behind other paths'
// simulation.
func BenchmarkBatchVsSerial(b *testing.B) {
	cfg := benchOpts().AnalyzerConfig()
	jobs, err := pubtac.BenchmarkJobs()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		// WithConfig preserves cfg's worker budget: paths run serially, each
		// campaign parallelizes.
		one := pubtac.NewSession(pubtac.WithConfig(cfg))
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := one.AnalyzePath(context.Background(), j.Program, j.Inputs[0]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		s := pubtac.NewSession(pubtac.WithConfig(cfg))
		for i := 0; i < b.N; i++ {
			if _, err := s.AnalyzeBatch(context.Background(), jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Component benchmarks --------------------------------------------

// BenchmarkPUBTransform measures the PUB pass over all 11 benchmarks.
func BenchmarkPUBTransform(b *testing.B) {
	bms := malardalen.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range bms {
			if _, _, err := pub.Transform(bm.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTACAnalyze measures TAC on the pubbed bs trace.
//
//pubtac:bench
func BenchmarkTACAnalyze(b *testing.B) {
	bm := malardalen.BS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	model := proc.DefaultModel()
	cfg := tac.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tac.Analyze(tr, model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTACAnalyzeWide measures TAC on the pubbed bs trace at the
// opened-up scenario PR 5 unlocked: HotLines=24 with MaxExtraWays=1, i.e.
// every hot line of the trace considered and W+2-line groups enumerated on
// top of the W+1 ones. Before the posting-list enumeration this
// configuration sat behind a combinatorial cliff (a full-trace scan and a
// per-seed pinned replay for every candidate); it is now gated in CI as its
// own baseline.
//
//pubtac:bench
func BenchmarkTACAnalyzeWide(b *testing.B) {
	bm := malardalen.BS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	model := proc.DefaultModel()
	cfg := tac.DefaultConfig()
	cfg.HotLines = 24
	cfg.MaxExtraWays = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tac.Analyze(tr, model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaign1k measures a 1000-run campaign of the pubbed bs path:
// the trace compiled, then runs [0, 1000) collected on GOMAXPROCS workers.
//
//pubtac:bench
func BenchmarkCampaign1k(b *testing.B) {
	bm := malardalen.BS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	model := proc.DefaultModel()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mbpta.NewCampaign(tr, model, uint64(i)).CollectRangeCtx(ctx, 0, 1000, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergePath measures one pubbed path's MBPTA search at paper
// scale: the edn default path, whose TAC floor (84,873 runs at the paper's
// configuration) lies far past R_pub, searched with that floor on 2
// workers into a full summary. The read-ahead collects the floor and the
// search's certain rounds in windows while the search pushes and fits, so
// this times the collection, every round's push and fit, the battery and
// the pushes up to the floor. The trace is compiled and TAC run outside
// the timed loop; the campaign, and with it its engines, is reused.
//
//pubtac:bench
func BenchmarkConvergePath(b *testing.B) {
	bm := malardalen.EDN()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	in := bm.Default()
	cfg := core.DefaultConfig()
	camp := mbpta.NewCampaign(pubbed.MustExec(in).Trace, cfg.Model, cfg.CampaignRoot(bm.Name, in.Name))
	ta, err := tac.AnalyzeCompiled(camp.Trace, camp.Compiled, cfg.Model, cfg.TAC)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := cfg.MBPTA
	mcfg.Workers = 2
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := camp.ConvergeCtx(ctx, mcfg, ta.MinRuns, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignMatmult measures a 1000-run campaign of the pubbed
// matmult default path on one engine. matmult's DL1 overflows a set in
// most seeds, and about 91% of those may evict a live line and replay, so
// this is the replay-bound shape that dominates paper-scale batches, where
// BenchmarkCampaign1k's bs mostly takes the analytic path. Most of a
// replayed seed's evicted lines come back, and about half of them re-enter
// at the posting after their last miss, the gallop's first probe.
//
//pubtac:bench
func BenchmarkCampaignMatmult(b *testing.B) {
	bm := malardalen.MatMult()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	e := proc.NewEngine(proc.DefaultModel())
	dst := make([]float64, 1000)
	e.CampaignInto(tr, dst[:1], 0, 0) // compile outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CampaignInto(tr, dst, uint64(i), 0)
	}
}

// BenchmarkCampaignNS measures a 1000-run campaign of the pubbed ns default
// path on one engine. Every ns seed overflows a DL1 set, yet 64% of them
// never replay: line 0 is live across the whole trace and every other line
// only within a few dozen DL1 accesses, so a seed evicts a live line only
// when two other lines share line 0's set. A replayed seed has about 30
// of its lines in overflowing sets, so this is the shape where the
// misses-only replay takes in the most lines per run; nearly all of its
// misses are first accesses, which come from the replay's cursor.
//
//pubtac:bench
func BenchmarkCampaignNS(b *testing.B) {
	bm := malardalen.NS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	e := proc.NewEngine(proc.DefaultModel())
	dst := make([]float64, 1000)
	e.CampaignInto(tr, dst[:1], 0, 0) // compile outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CampaignInto(tr, dst, uint64(i), 0)
	}
}

// BenchmarkExecTrace measures raw trace generation for the largest
// benchmark (matmult).
//
//pubtac:bench
func BenchmarkExecTrace(b *testing.B) {
	bm := malardalen.MatMult()
	in := bm.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Program.MustExec(in)
	}
}

// BenchmarkServeHit measures a memory hit through the daemon's handler:
// request decoding, resolution and key derivation through the registry
// table, the store read and the response, with no analysis. Each request
// is analyzed once before timing, so every timed request is a hit.
//
//pubtac:bench
func BenchmarkServeHit(b *testing.B) {
	store, err := serve.NewStore(b.TempDir(), 8)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: []pubtac.Option{pubtac.WithScale(benchScale)}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, c := range []struct{ name, body string }{
		{"bs-multipath", `{"bench": "bs", "multipath": true, "wait": true}`},
		{"matmult", `{"bench": "matmult", "wait": true}`},
	} {
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(c.body)))
			return rec
		}
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("%s: warm-up status %d: %s", c.name, rec.Code, rec.Body)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := post(); rec.Header().Get(client.HeaderCache) != "hit" {
					b.Fatalf("request %d not served from the store (status %d)", i, rec.Code)
				}
			}
		})
	}
}

// BenchmarkCheckIID contrasts the one-shot i.i.d. battery with the full
// summary's one-pass battery on a 100k-run sample: the report a campaign
// makes once per estimate it ships. The one-shot arm copies and sorts the
// sample for the runs-test median and sorts both halves for the KS check.
// A full summary folds the Ljung-Box sums as runs are pushed, so its arm
// times what the battery costs a campaign end to end: NewFullSummary(true),
// the push of the 100k runs (encoding them as dictionary codes, folding the
// sums in register-blocked passes and rebuilding the sorted view from the
// counts) and the report, which reads the median off the view and walks
// the codes once for the runs test and once over the first half for KS.
//
//pubtac:bench
func BenchmarkCheckIID(b *testing.B) {
	const n = 100_000
	gen := rng.New(42)
	xs := make([]float64, n)
	for i := range xs {
		// Execution-time-like values: integer cycles on a coarse grid.
		xs[i] = math.Floor(gen.Float64()*2000) + 40000
	}
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.CheckIID(xs)
		}
	})
	b.Run("full-summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := stats.NewFullSummary(true)
			sum.Push(xs)
			sum.IID()
		}
	})
}

// BenchmarkConvergeStreaming contrasts the two estimation arms at the
// convergence loop's steady state: n = 100k accumulated runs, 1k-run
// increments, and per round what mbpta's ConvergeCtx runs — a push, the
// auto-fit ladder and the composite curve, with no battery. The full-sample
// arm keeps every run as a 2-byte dictionary code (its sample takes 2,000
// distinct values) and rebuilds its sorted view from per-value counts, so a
// round costs O(inc + d) and its peak memory (reported as peak-B) grows by
// 2 B per run; the streaming arm works from the top-K reservoir and
// quantile sketch, so its per-round cost and peak memory are functions of
// the budget, not of n.
//
//pubtac:bench
func BenchmarkConvergeStreaming(b *testing.B) {
	const n, inc = 100_000, 1_000
	gen := rng.New(43)
	xs := make([]float64, 2*n)
	for i := range xs {
		// Execution-time-like values: integer cycles on a coarse grid.
		xs[i] = math.Floor(gen.Float64()*2000) + 40000
	}
	cfg := mbpta.DefaultConfig()
	fit := func(b *testing.B, sum stats.SampleSummary) {
		v := sum.View()
		tail, _, err := evt.FitExpTailAutoSummary(v, cfg.TailCount, v.N()/5)
		if err != nil {
			b.Fatal(err)
		}
		evt.NewSummaryComposite(v, tail)
	}
	run := func(b *testing.B, mk func() stats.SampleSummary) {
		extra := xs[n:]
		var sum stats.SampleSummary
		reset := func() {
			sum = mk()
			sum.Push(xs[:n])
			fit(b, sum)
		}
		reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % (len(extra) / inc) * inc
			sum.Push(extra[j : j+inc])
			fit(b, sum)
			if sum.N() >= 2*n {
				// Keep the round pinned near the nominal sample size.
				b.StopTimer()
				reset()
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(sum.PeakBytes()), "peak-B")
	}
	b.Run("full-sample", func(b *testing.B) {
		run(b, func() stats.SampleSummary { return stats.NewFullSummary(true) })
	})
	b.Run("streaming", func(b *testing.B) {
		run(b, func() stats.SampleSummary { return stats.NewStreamingSummary(mbpta.DefaultStreamBudget) })
	})
}

// --- Ablation benchmarks (design decisions) ---------------------------

// BenchmarkAblationPlacementHash compares the keyed-hash random placement
// against modulo placement on the same trace (cost of randomization).
func BenchmarkAblationPlacementHash(b *testing.B) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 200)
	for _, pc := range []struct {
		name string
		p    cache.PlacementPolicy
	}{{"random", cache.RandomPlacement}, {"modulo", cache.ModuloPlacement}} {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			cfg := cache.DefaultL1()
			cfg.Placement = pc.p
			c := cache.New(cfg, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range tr {
					c.Access(a.Addr)
				}
			}
		})
	}
}

// BenchmarkAblationTailFit compares the exponential-tail (MBPTA-CV) fit
// with the Gumbel block-maxima fit on the same campaign. The exptail-cv arm
// pays the sort of the full sample's view (an ECDF) on every fit; the
// exptail-cv-sorted arm builds the view once, as the convergence loop's
// summary does at each push, so it times the threshold scan alone, which
// reads the view's flat copy of its largest values.
//
//pubtac:bench
func BenchmarkAblationTailFit(b *testing.B) {
	bm := malardalen.CNT()
	tr := bm.Program.MustExec(bm.Default()).Trace
	sample, err := mbpta.NewCampaign(tr, proc.DefaultModel(), 9).CollectRangeCtx(context.Background(), 0, 4000, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exptail-cv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := evt.FitExpTailAutoSummary(stats.NewECDF(sample), 10, len(sample)/5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exptail-cv-sorted", func(b *testing.B) {
		v := stats.NewECDF(sample)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := evt.FitExpTailAutoSummary(v, 10, len(sample)/5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gumbel-bm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.FitGumbel(sample, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCompiledReplay contrasts Run on the compiled replay (a
// one-seed block of the batched replay) against the uncompiled reference
// replay, one run at a time (the two are bit-identical; see internal/proc's
// equivalence tests).
func BenchmarkAblationCompiledReplay(b *testing.B) {
	bm := malardalen.BS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	for _, arm := range []struct {
		name      string
		reference bool
	}{{"compiled", false}, {"reference", true}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			e := proc.NewEngine(proc.DefaultModel())
			e.UseReference(arm.reference)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(tr, uint64(i))
			}
		})
	}
}

// BenchmarkAblationBatchReplay contrasts three ways to run a 1000-run
// campaign of the pubbed bs path: full blocks of the batched replay (BatchK
// seeds per pass over the shared compiled stream, conflict-free seeds
// answered analytically), a loop of Runs (one-seed blocks, each paying a
// full block's placement work), and the uncompiled reference engine. All
// three produce bit-identical times (see internal/proc's batch equivalence
// tests).
//
//pubtac:bench
func BenchmarkAblationBatchReplay(b *testing.B) {
	bm := malardalen.BS()
	pubbed, _, err := pub.Transform(bm.Program)
	if err != nil {
		b.Fatal(err)
	}
	tr := pubbed.MustExec(bm.Default()).Trace
	model := proc.DefaultModel()
	dst := make([]float64, 1000)
	b.Run("batched", func(b *testing.B) {
		e := proc.NewEngine(model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CampaignInto(tr, dst, uint64(i), 0)
		}
	})
	b.Run("per-seed", func(b *testing.B) {
		e := proc.NewEngine(model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = float64(e.Run(tr, rng.Stream(uint64(i), j)))
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		e := proc.NewEngine(model)
		e.UseReference(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CampaignInto(tr, dst, uint64(i), 0)
		}
	})
}

// BenchmarkAblationMissJitter measures the cost of the optional randomized
// bus-jitter term in the timing model.
func BenchmarkAblationMissJitter(b *testing.B) {
	bm := malardalen.BS()
	tr := bm.Program.MustExec(bm.Default()).Trace
	for _, jc := range []struct {
		name   string
		jitter uint64
	}{{"off", 0}, {"on", 4}} {
		jc := jc
		b.Run(jc.name, func(b *testing.B) {
			m := proc.DefaultModel()
			m.Lat.MissJitter = jc.jitter
			e := proc.NewEngine(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(tr, uint64(i))
			}
		})
	}
}

// BenchmarkAblationSCSFallback measures the SCS merge on wide branches
// (the DP is quadratic; the transform falls back to concatenation beyond a
// size bound).
func BenchmarkAblationSCSFallback(b *testing.B) {
	bm, err := pubtac.Benchmark("crc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pubtac.Transform(bm.Program); err != nil {
			b.Fatal(err)
		}
	}
}
