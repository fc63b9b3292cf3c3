package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/stats"
)

// TestCanonicalEncodingFieldsPinned pins the field list of every struct that
// AppendCanonical encodes. If this test fails, a configuration field was
// added, removed or renamed: extend (or prune) AppendCanonical accordingly
// AND bump EncodingVersion — cache keys derived from the encoding must not
// collide across configurations that differ in the new field.
func TestCanonicalEncodingFieldsPinned(t *testing.T) {
	if EncodingVersion != 2 {
		t.Fatalf("EncodingVersion = %d, want 2: re-pin the field lists below with the bump", EncodingVersion)
	}
	pinned := []struct {
		name   string
		typ    reflect.Type
		fields []string
	}{
		{"core.Config", reflect.TypeOf(Config{}),
			[]string{"Model", "MBPTA", "TAC", "CampaignCap", "SeedSalt", "Progress", "IIDHardFail",
				"Sharder", "Shards"}},
		{"mbpta.Config", reflect.TypeOf(Config{}.MBPTA),
			[]string{"InitialRuns", "Increment", "MaxRuns", "TailCount", "StabilityEps",
				"StabilityProb", "StableRounds", "Alpha", "Workers",
				"Streaming", "StreamBudget"}},
		{"tac.Config", reflect.TypeOf(Config{}.TAC),
			[]string{"MissProb", "MinImpactRel", "ImpactTol", "HotLines", "MaxExtraWays",
				"ProbFloor", "BaselineSeeds", "PinSeeds", "Seed", "Workers"}},
		{"proc.Model", reflect.TypeOf(proc.Model{}),
			[]string{"IL1", "DL1", "Lat"}},
		{"cache.Config", reflect.TypeOf(cache.Config{}),
			[]string{"Sets", "Ways", "LineBytes", "Placement", "Replacement"}},
		{"proc.Latency", reflect.TypeOf(proc.Latency{}),
			[]string{"Issue", "Hit", "Miss", "MissJitter"}},
	}
	for _, p := range pinned {
		var got []string
		for i := 0; i < p.typ.NumField(); i++ {
			got = append(got, p.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, p.fields) {
			t.Errorf("%s fields changed:\n  got  %v\n  want %v\n"+
				"extend Config.AppendCanonical for the new/changed fields and bump core.EncodingVersion",
				p.name, got, p.fields)
		}
	}
}

func TestCanonicalEncodingStability(t *testing.T) {
	a := DefaultConfig().AppendCanonical(nil)
	b := DefaultConfig().AppendCanonical(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding not deterministic:\n%s\n%s", a, b)
	}

	// Worker counts and the progress sink must NOT reach the encoding:
	// results are worker-count-invariant and observation-free, so sessions
	// differing only there share cache entries.
	cfg := DefaultConfig()
	cfg.MBPTA.Workers = 7
	cfg.TAC.Workers = 3
	cfg.Progress = func(ProgressEvent) {}
	if !bytes.Equal(a, cfg.AppendCanonical(nil)) {
		t.Fatal("worker counts or progress sink leaked into the canonical encoding")
	}

	// Distributed collection is shard- and peer-invariant (index-addressed
	// fill, bit-identical local fallback), so the sharding knobs must not
	// reach the encoding either: coordinator, workers and local sessions
	// share cache keys and config fingerprints.
	cfg = DefaultConfig()
	cfg.Shards = 9
	cfg.Sharder = nopSharder{}
	if !bytes.Equal(a, cfg.AppendCanonical(nil)) {
		t.Fatal("sharding knobs leaked into the canonical encoding")
	}

	// The encoding hashes the streaming budget in use, not as given: a
	// budget <= 0 means the default and a small one is floored, so
	// equivalent budgets share keys (and shards), and a budget without
	// streaming is never read.
	budget := func(streaming bool, k int) []byte {
		cfg := DefaultConfig()
		cfg.MBPTA.Streaming, cfg.MBPTA.StreamBudget = streaming, k
		return cfg.AppendCanonical(nil)
	}
	for i, same := range [][2][]byte{
		{a, budget(false, 512)},
		{budget(true, 0), budget(true, -1)},
		{budget(true, 0), budget(true, mbpta.DefaultStreamBudget)},
		{budget(true, 10), budget(true, stats.MinStreamBudget)},
	} {
		if !bytes.Equal(same[0], same[1]) {
			t.Errorf("equivalent budget pair %d encodes differently", i)
		}
	}
	if bytes.Equal(budget(true, 0), budget(true, 64)) {
		t.Error("distinct streaming budgets encode identically")
	}

	// Every encoded knob must perturb the encoding. One representative per
	// encoded struct guards the plumbing (the pin test guards coverage).
	perturb := []func(*Config){
		func(c *Config) { c.Model.IL1.Ways = 4 },
		func(c *Config) { c.Model.Lat.Miss = 99 },
		func(c *Config) { c.MBPTA.TailCount = 11 },
		func(c *Config) { c.MBPTA.Streaming = true },
		func(c *Config) { c.TAC.HotLines = 24 },
		func(c *Config) { c.CampaignCap = 123 },
		func(c *Config) { c.SeedSalt = 5 },
		func(c *Config) { c.IIDHardFail = true },
	}
	for i, mut := range perturb {
		cfg := DefaultConfig()
		mut(&cfg)
		if bytes.Equal(a, cfg.AppendCanonical(nil)) {
			t.Errorf("perturbation %d did not change the canonical encoding", i)
		}
	}
}

// nopSharder is the minimal ShardCollector for encoding tests.
type nopSharder struct{}

func (nopSharder) Shards() int { return 1 }
func (nopSharder) CollectShard(context.Context, ShardSpec) ([]float64, error) {
	return nil, errors.New("nop")
}
