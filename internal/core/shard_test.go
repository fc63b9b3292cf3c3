package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/pub"
)

// memSharder executes ShardSpecs in-process exactly the way a pubtacd
// worker does — resolve the benchmark, PUB-transform unless Original,
// replay the run range into a full summary, return the raw sample — so the
// distributed oracle test covers the real worker recipe without sockets.
type memSharder struct {
	cfg    Config
	shards int
	fail   func(ShardSpec) bool
	calls  atomic.Int64
	failed atomic.Int64
}

func (m *memSharder) Shards() int { return m.shards }

func (m *memSharder) CollectShard(ctx context.Context, spec ShardSpec) ([]float64, error) {
	m.calls.Add(1)
	if m.fail != nil && m.fail(spec) {
		m.failed.Add(1)
		return nil, errors.New("injected shard failure")
	}
	fp := m.cfg.Fingerprint()
	if spec.Config != hex.EncodeToString(fp[:]) {
		return nil, fmt.Errorf("foreign config fingerprint %s", spec.Config)
	}
	b, err := malardalen.Get(spec.Program)
	if err != nil {
		return nil, err
	}
	p := b.Program
	if !spec.Original {
		if p, _, err = pub.Transform(p); err != nil {
			return nil, err
		}
	}
	in, err := b.Input(spec.Input)
	if err != nil {
		return nil, err
	}
	res, err := p.Exec(in)
	if err != nil {
		return nil, err
	}
	// Shards ship raw runs, so the coordinator's reassembled campaign is
	// bit-identical in every estimation mode — including a streaming
	// coordinator, which streams over the reassembled raw runs.
	return mbpta.NewCampaign(res.Trace, m.cfg.Model).CollectRangeCtx(ctx, spec.Lo, spec.Hi, spec.Root, m.cfg.MBPTA.Workers, nil)
}

// shardTestConfig keeps campaigns small while still exercising the
// TAC-demanded extension path (RTac exceeds convergence on bs, and the cap
// keeps the extension bounded).
func shardTestConfig() Config {
	cfg := testConfig()
	cfg.MBPTA.MaxRuns = 1200
	cfg.CampaignCap = 2000
	return cfg
}

// samePathAnalysis asserts the full result surface of two path analyses is
// bit-identical: run requirements, tail fit, CV test, battery report, pWCET
// and the raw sample.
func samePathAnalysis(t *testing.T, got, want *PathAnalysis) {
	t.Helper()
	if got.RPub != want.RPub || got.RTac != want.RTac || got.R != want.R || got.RunsUsed != want.RunsUsed {
		t.Fatalf("run counts differ: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
			got.RPub, got.RTac, got.R, got.RunsUsed, want.RPub, want.RTac, want.R, want.RunsUsed)
	}
	for _, p := range []float64{1e-9, 1e-12, 1e-15} {
		if got.PWCET(p) != want.PWCET(p) {
			t.Fatalf("pWCET@%g differs: %v != %v", p, got.PWCET(p), want.PWCET(p))
		}
	}
	if *got.Full.Tail != *want.Full.Tail || got.Full.CV != want.Full.CV || got.Full.IID != want.Full.IID {
		t.Fatal("tail fit, CV test or battery report differs")
	}
	if len(got.Full.Sample) != len(want.Full.Sample) {
		t.Fatalf("sample size differs: %d != %d", len(got.Full.Sample), len(want.Full.Sample))
	}
	for i := range got.Full.Sample {
		if got.Full.Sample[i] != want.Full.Sample[i] {
			t.Fatalf("sample run %d differs", i)
		}
	}
}

// The acceptance-criteria oracle: sharded analyses at shard counts 1, 2 and
// 8 — and with every third shard failing over to local recomputation — are
// bit-identical to the single-process reference, through both the
// convergence and the TAC-extension campaign phases.
func TestAnalyzePathShardedBitIdentical(t *testing.T) {
	b := malardalen.BS()
	cfg := shardTestConfig()
	ref, err := New(cfg).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	for _, tc := range []struct {
		name   string
		shards int
		fail   func(ShardSpec) bool
	}{
		{"shards=1", 1, nil},
		{"shards=2", 2, nil},
		{"shards=8", 8, nil},
		{"shards=8/failures", 8, nil}, // fail predicate attached below
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := shardTestConfig()
			ms := &memSharder{cfg: scfg, shards: tc.shards}
			if tc.name == "shards=8/failures" {
				var n atomic.Int64
				ms.fail = func(ShardSpec) bool { return n.Add(1)%3 == 0 }
			}
			scfg.Sharder = ms
			got, err := New(scfg).AnalyzePathCtx(context.Background(), b.Program, b.Default())
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			samePathAnalysis(t, got, ref)
			if ms.calls.Load() == 0 {
				t.Fatal("sharder never consulted")
			}
			if ms.fail != nil && ms.failed.Load() == 0 {
				t.Fatal("failure injection never fired")
			}
		})
	}
}

// A streaming coordinator shards just as exactly: workers ship raw runs, the
// coordinator streams over them, so the streaming estimate equals the local
// streaming estimate bit for bit.
func TestAnalyzePathShardedStreaming(t *testing.T) {
	b := malardalen.BS()
	mk := func() Config {
		cfg := shardTestConfig()
		cfg.MBPTA.Streaming = true
		cfg.MBPTA.StreamBudget = 512
		return cfg
	}
	ref, err := New(mk()).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	scfg := mk()
	scfg.Sharder = &memSharder{cfg: mk(), shards: 4}
	got, err := New(scfg).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if got.RunsUsed != ref.RunsUsed ||
		got.PWCET(1e-12) != ref.PWCET(1e-12) ||
		*got.Full.Tail != *ref.Full.Tail || got.Full.CV != ref.Full.CV || got.Full.IID != ref.Full.IID {
		t.Fatal("sharded streaming analysis differs from local streaming reference")
	}
}

// The R_orig baseline path shards too (Original=true specs skip PUB).
func TestAnalyzeOriginalSharded(t *testing.T) {
	b := malardalen.BS()
	ref, err := New(shardTestConfig()).AnalyzeOriginalCtx(context.Background(), b.Program, b.Default(), 0)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	scfg := shardTestConfig()
	ms := &memSharder{cfg: shardTestConfig(), shards: 2}
	scfg.Sharder = ms
	got, err := New(scfg).AnalyzeOriginalCtx(context.Background(), b.Program, b.Default(), 0)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if got.ROrig != ref.ROrig || got.Estimate.PWCET(1e-12) != ref.Estimate.PWCET(1e-12) ||
		got.Estimate.IID != ref.Estimate.IID {
		t.Fatal("sharded original analysis differs from local reference")
	}
	if ms.calls.Load() == 0 {
		t.Fatal("sharder never consulted")
	}
}

// Config.Shards overrides the collector's suggestion, and a sharder whose
// every shard fails (foreign fingerprint) still yields the reference result.
func TestShardConfigOverridesAndForeignConfig(t *testing.T) {
	b := malardalen.BS()
	ref, err := New(shardTestConfig()).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// The worker holds a DIFFERENT config: every shard is refused by the
	// fingerprint check and recomputed locally under the coordinator's own
	// config — degraded, never wrong.
	foreign := shardTestConfig()
	foreign.SeedSalt = 12345
	scfg := shardTestConfig()
	ms := &memSharder{cfg: foreign, shards: 3}
	scfg.Sharder = ms
	scfg.Shards = 5
	got, err := New(scfg).AnalyzePathCtx(context.Background(), b.Program, b.Default())
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	samePathAnalysis(t, got, ref)
	if ms.calls.Load() == 0 {
		t.Fatal("sharder never consulted")
	}
}
