package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"pubtac/internal/mbpta"
)

// ShardSpec names one campaign shard for remote execution: which analysis
// configuration the worker must be running (by canonical config
// fingerprint), which program path's campaign, and which half-open run
// range. Everything a worker needs to recompute runs Lo..Hi-1 — and nothing
// else: run i depends only on (Root, i), so the spec is tiny no matter how
// large the campaign.
type ShardSpec struct {
	// Config is the hex canonical fingerprint (Config.Fingerprint) the
	// coordinator analyzed under; a worker running a different configuration
	// must refuse the shard, because its runs would not be the
	// coordinator's runs.
	Config string `json:"config"`
	// Program and Input name the benchmark path whose trace is replayed.
	Program string `json:"program"`
	Input   string `json:"input"`
	// Original selects the unmodified program (the R_orig baseline);
	// otherwise the worker applies PUB first, as AnalyzePath does.
	Original bool `json:"original,omitempty"`
	// Root is the campaign root seed (already salted by the coordinator).
	Root uint64 `json:"root"`
	// [Lo, Hi) is the run range to collect.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Runs returns the shard's run count.
func (s ShardSpec) Runs() int { return s.Hi - s.Lo }

// ShardCollector executes campaign shards somewhere else — the client
// package implements it over a pool of pubtacd peers. CollectShard returns
// the shard's execution times in run order (exactly spec.Runs() values).
// Implementations are called concurrently, one call per in-flight shard.
type ShardCollector interface {
	// Shards suggests how many shards to split a campaign into when
	// Config.Shards is unset — typically the peer count.
	Shards() int
	// CollectShard computes runs spec.Lo..spec.Hi-1. An error marks only
	// this shard failed; the coordinator recomputes it locally. That is
	// also the fate of a shard whose peer speaks another runs-frame
	// version (stats.SummaryWireVersion): results never depend on it.
	CollectShard(ctx context.Context, spec ShardSpec) ([]float64, error)
}

// Fingerprint returns the SHA-256 of the canonical config encoding — the
// identity compared between coordinator and workers before a shard runs.
// The session-level fingerprint the service layer keys results on returns
// this same value.
func (c Config) Fingerprint() [sha256.Size]byte {
	return sha256.Sum256(c.AppendCanonical(nil))
}

// distribute makes camp collect through the configured ShardCollector, if
// any: mbpta cuts every campaign range into Config.Shards contiguous shards
// (Sharder.Shards() when unset), fetches each as a ShardSpec and recomputes
// failed shards locally, so the filled sample is bit-identical to local
// collection no matter how many shards, peers, or failures were involved.
func (a *Analyzer) distribute(camp *mbpta.Campaign, name, input string, original bool, root uint64) {
	sc := a.cfg.Sharder
	if sc == nil {
		return
	}
	k := a.cfg.Shards
	if k <= 0 {
		k = sc.Shards()
	}
	fp := a.cfg.Fingerprint()
	cfgHex := hex.EncodeToString(fp[:])
	camp.SetRemote(func(ctx context.Context, r mbpta.Range) ([]float64, error) {
		return sc.CollectShard(ctx, ShardSpec{
			Config: cfgHex, Program: name, Input: input,
			Original: original, Root: root, Lo: r.Lo, Hi: r.Hi,
		})
	}, k)
}
