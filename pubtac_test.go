package pubtac_test

import (
	"context"
	"testing"

	"pubtac"
)

func TestFacadeQuickstart(t *testing.T) {
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pubtac.NewSession().Config()
	cfg.MBPTA.InitialRuns = 200
	cfg.MBPTA.Increment = 200
	cfg.MBPTA.MaxRuns = 2000
	cfg.CampaignCap = 3000
	s := pubtac.NewSession(pubtac.WithConfig(cfg))
	res, err := s.AnalyzePath(context.Background(), bench.Program, bench.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCET(1e-12) <= 0 || res.R <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFacadeBenchmarksComplete(t *testing.T) {
	if got := len(pubtac.Benchmarks()); got != 11 {
		t.Fatalf("benchmarks = %d, want 11", got)
	}
	if _, err := pubtac.Benchmark("unknown"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeTransform(t *testing.T) {
	bench, err := pubtac.Benchmark("cnt")
	if err != nil {
		t.Fatal(err)
	}
	pubbed, rep, err := pubtac.Transform(bench.Program)
	if err != nil {
		t.Fatal(err)
	}
	if pubbed == nil || rep.Constructs == 0 {
		t.Fatalf("transform incomplete: %+v", rep)
	}
}
