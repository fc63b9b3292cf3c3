package pubtac_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"pubtac"
)

// sessionTestConfig mirrors the facade test sizing: small campaigns so a
// full path analysis stays in the tens of milliseconds.
func sessionTestConfig() pubtac.Config {
	cfg := pubtac.NewSession().Config()
	cfg.MBPTA.InitialRuns = 200
	cfg.MBPTA.Increment = 200
	cfg.MBPTA.MaxRuns = 2000
	cfg.CampaignCap = 3000
	return cfg
}

func TestSessionOptionApplication(t *testing.T) {
	s := pubtac.NewSession(
		pubtac.WithWorkers(3),
		pubtac.WithSeed(99),
		pubtac.WithCampaignCap(50000),
	)
	cfg := s.Config()
	if cfg.MBPTA.Workers != 3 || s.Workers() != 3 {
		t.Errorf("workers = %d/%d, want 3", cfg.MBPTA.Workers, s.Workers())
	}
	if cfg.SeedSalt != 99 {
		t.Errorf("seed salt = %d, want 99", cfg.SeedSalt)
	}
	if cfg.CampaignCap != 50000 {
		t.Errorf("campaign cap = %d, want 50000 (unscaled)", cfg.CampaignCap)
	}

	scaled := pubtac.NewSession(pubtac.WithScale(0.05)).Config()
	if scaled.MBPTA.InitialRuns != 200 { // 1000*0.05 floored at 200
		t.Errorf("scaled initial runs = %d, want 200", scaled.MBPTA.InitialRuns)
	}
	if scaled.MBPTA.MaxRuns != 15000 {
		t.Errorf("scaled max runs = %d, want 15000", scaled.MBPTA.MaxRuns)
	}
	if scaled.CampaignCap != 35000 { // 700000 * 0.05
		t.Errorf("scaled default cap = %d, want 35000", scaled.CampaignCap)
	}

	// The default cap is continuous in the scale: scale 1.0 gets the full
	// paper-size 7e5 cap, not "no cap".
	if got := pubtac.NewSession().Config().CampaignCap; got != 700000 {
		t.Errorf("default campaign cap = %d, want 700000", got)
	}
	// An explicit cap is honored verbatim, never rescaled.
	explicit := pubtac.NewSession(pubtac.WithScale(0.05), pubtac.WithCampaignCap(80000)).Config()
	if explicit.CampaignCap != 80000 {
		t.Errorf("explicit cap under scale = %d, want 80000", explicit.CampaignCap)
	}

	viaCfg := pubtac.NewSession(pubtac.WithConfig(sessionTestConfig())).Config()
	if viaCfg.MBPTA.MaxRuns != 2000 || viaCfg.CampaignCap != 3000 {
		t.Errorf("WithConfig not applied: %+v", viaCfg.MBPTA)
	}
	// WithConfig's Workers survives unless WithWorkers overrides it.
	wcfg := sessionTestConfig()
	wcfg.MBPTA.Workers = 1
	if got := pubtac.NewSession(pubtac.WithConfig(wcfg)); got.Config().MBPTA.Workers != 1 || got.Workers() != 1 {
		t.Errorf("WithConfig workers clobbered: cfg=%d session=%d",
			got.Config().MBPTA.Workers, got.Workers())
	}
	withModel := pubtac.NewSession(pubtac.WithModel(pubtac.DefaultModel().Deterministic())).Config()
	if withModel.Model.IL1.Placement == pubtac.DefaultModel().IL1.Placement {
		t.Error("WithModel not applied")
	}
}

func TestSessionCancellationStopsCampaign(t *testing.T) {
	before := runtime.NumGoroutine()

	// Full-scale session: the campaign would need minutes; cancellation
	// must stop it within a blink.
	s := pubtac.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	jobs, err := pubtac.BenchmarkJobs()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.AnalyzeBatch(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v", took)
	}

	// All campaign goroutines must drain: poll until the count returns to
	// (near) the pre-call baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSessionDeadlineStopsCampaign(t *testing.T) {
	bench, err := pubtac.Benchmark("matmult")
	if err != nil {
		t.Fatal(err)
	}
	s := pubtac.NewSession()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.AnalyzePath(ctx, bench.Program, bench.Default()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSessionProgressDelivery(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	var events []pubtac.ProgressEvent
	s := pubtac.NewSession(
		pubtac.WithConfig(sessionTestConfig()),
		pubtac.WithProgress(func(ev pubtac.ProgressEvent) { events = append(events, ev) }),
	)
	if _, err := s.AnalyzePath(context.Background(), bench.Program, bench.Default()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	sawConverge := false
	for _, ev := range events {
		if ev.Program != "bs" {
			t.Fatalf("event for program %q", ev.Program)
		}
		if ev.Done > ev.Target {
			t.Fatalf("done %d beyond target %d", ev.Done, ev.Target)
		}
		if ev.Phase == "converge" {
			sawConverge = true
		}
	}
	if !sawConverge {
		t.Error("no converge-phase events")
	}
	last := events[len(events)-1]
	if last.Phase != "done" || last.Done != last.Target {
		t.Fatalf("terminal event = %+v, want done with Done == Target", last)
	}
}

func TestSessionBatchMatchesSerial(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	inputs := bench.Inputs[:3]
	cfg := sessionTestConfig()

	one := pubtac.NewSession(pubtac.WithConfig(cfg), pubtac.WithWorkers(1))
	serial := make([]*pubtac.Result, len(inputs))
	for i, in := range inputs {
		r, err := one.AnalyzePath(context.Background(), bench.Program, in)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	s := pubtac.NewSession(pubtac.WithConfig(cfg), pubtac.WithWorkers(4))
	batch, err := s.AnalyzeBatch(context.Background(),
		[]pubtac.Job{{Program: bench.Program, Inputs: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	got := batch.Jobs[0].Results
	if len(got) != len(serial) {
		t.Fatalf("results = %d, want %d", len(got), len(serial))
	}
	for i, r := range got {
		want := serial[i]
		if r.Input != want.Input {
			t.Fatalf("result %d out of order: %s vs %s", i, r.Input, want.Input)
		}
		if r.RPub != want.RPub || r.RTac != want.RTac || r.R != want.R || r.RunsUsed != want.RunsUsed {
			t.Errorf("%s: runs differ: batch (%d,%d,%d,%d) serial (%d,%d,%d,%d)",
				r.Input, r.RPub, r.RTac, r.R, r.RunsUsed,
				want.RPub, want.RTac, want.R, want.RunsUsed)
		}
		if r.PWCET(1e-12) != want.PWCET(1e-12) {
			t.Errorf("%s: pWCET differs: %v vs %v", r.Input, r.PWCET(1e-12), want.PWCET(1e-12))
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	bench, err := pubtac.Benchmark("cnt")
	if err != nil {
		t.Fatal(err)
	}
	s := pubtac.NewSession(pubtac.WithConfig(sessionTestConfig()))
	res, err := s.AnalyzePath(context.Background(), bench.Program, bench.Default())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back pubtac.Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Program != res.Program || back.R != res.R || len(back.Curve) != len(res.Curve) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Analysis() != nil {
		t.Error("decoded result should not carry an in-memory analysis")
	}
	// At serialized probe points the interpolated curve is exact.
	if got, want := back.PWCET(1e-12), res.PWCET(1e-12); got != want {
		t.Errorf("decoded pWCET@1e-12 = %v, want %v", got, want)
	}
	// Between probes it stays monotone and finite.
	mid := back.PWCET(3e-8)
	if !(mid >= back.PWCET(1e-7) && mid <= back.PWCET(1e-8)) {
		t.Errorf("interpolated pWCET %v outside bracketing decades [%v, %v]",
			mid, back.PWCET(1e-7), back.PWCET(1e-8))
	}
}

func TestBenchmarkJobs(t *testing.T) {
	jobs, err := pubtac.BenchmarkJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 11 {
		t.Fatalf("jobs = %d, want 11", len(jobs))
	}
	if _, err := pubtac.BenchmarkJobs("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	two, err := pubtac.BenchmarkJobs("bs", "crc")
	if err != nil || len(two) != 2 {
		t.Fatalf("named jobs = %d (%v), want 2", len(two), err)
	}
}

func TestSessionBatchRejectsInputlessJob(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	s := pubtac.NewSession(pubtac.WithConfig(sessionTestConfig()))
	_, err = s.AnalyzeBatch(context.Background(), []pubtac.Job{
		{Program: bench.Program, Inputs: bench.Inputs[:1]},
		{Program: bench.Program},
	})
	if err == nil {
		t.Fatal("expected error for a job with no inputs")
	}
	if _, err := s.AnalyzeBatch(context.Background(), nil); err == nil {
		t.Fatal("expected error for an empty batch")
	}
}

func TestSessionMultiPathMinimum(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	s := pubtac.NewSession(pubtac.WithConfig(sessionTestConfig()))
	m, err := s.AnalyzeMultiPath(context.Background(), bench.Program, bench.Inputs[:3])
	if err != nil {
		t.Fatal(err)
	}
	p := 1e-12
	min := m.Results[0].PWCET(p)
	for _, r := range m.Results {
		if v := r.PWCET(p); v < min {
			min = v
		}
	}
	if m.PWCET(p) != min {
		t.Fatalf("MultiResult PWCET = %v, want min %v", m.PWCET(p), min)
	}
	if m.Best(p).PWCET(p) != m.PWCET(p) {
		t.Fatal("Best() inconsistent with PWCET()")
	}
}

func TestSessionIIDWarningDelivery(t *testing.T) {
	// An absurdly strict alpha forces the convergence battery to fail;
	// the warning must reach the session's progress sink with its note.
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sessionTestConfig()
	cfg.MBPTA.Alpha = 0.999
	var warnings []pubtac.ProgressEvent
	s := pubtac.NewSession(pubtac.WithConfig(cfg), pubtac.WithProgress(func(ev pubtac.ProgressEvent) {
		if ev.Phase == "warning" {
			warnings = append(warnings, ev)
		}
	}))
	if _, err := s.AnalyzePath(context.Background(), bench.Program, bench.Default()); err != nil {
		t.Fatal(err)
	}
	if len(warnings) == 0 {
		t.Fatal("no warning event delivered despite alpha=0.999")
	}
	if warnings[0].Note == "" {
		t.Fatalf("warning without note: %+v", warnings[0])
	}
}

// TestSessionIIDHardFail: WithIIDHardFail promotes the alpha=0.999
// admissibility warning exercised above into a hard failure wrapping
// ErrIIDInadmissible — and the progress sink still sees the warning
// event before the analysis aborts.
func TestSessionIIDHardFail(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sessionTestConfig()
	cfg.MBPTA.Alpha = 0.999 // no finite random sample clears this bar
	var warnings int
	s := pubtac.NewSession(
		pubtac.WithConfig(cfg),
		pubtac.WithIIDHardFail(true),
		pubtac.WithProgress(func(ev pubtac.ProgressEvent) {
			if ev.Phase == "warning" {
				warnings++
			}
		}),
	)
	if !s.Config().IIDHardFail {
		t.Fatal("WithIIDHardFail(true) not reflected in Config()")
	}
	_, err = s.AnalyzePath(context.Background(), bench.Program, bench.Default())
	if !errors.Is(err, pubtac.ErrIIDInadmissible) {
		t.Fatalf("AnalyzePath error = %v, want ErrIIDInadmissible", err)
	}
	if warnings == 0 {
		t.Error("hard failure delivered no warning event first")
	}

	// AnalyzeOriginal takes the same gate. bs's original sample is nearly
	// constant (its battery trivially passes at any alpha), so gate a
	// benchmark whose original timing actually varies.
	mm, err := pubtac.Benchmark("matmult")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AnalyzeOriginal(context.Background(), mm.Program, mm.Default()); !errors.Is(err, pubtac.ErrIIDInadmissible) {
		t.Fatalf("AnalyzeOriginal error = %v, want ErrIIDInadmissible", err)
	}

	// At the default significance the same session setup ships normally:
	// the option only bites when the battery actually fails.
	ok := pubtac.NewSession(pubtac.WithConfig(sessionTestConfig()), pubtac.WithIIDHardFail(true))
	if _, err := ok.AnalyzePath(context.Background(), bench.Program, bench.Default()); err != nil {
		t.Fatalf("hard-fail session at default alpha: %v", err)
	}
}
