package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"

	"pubtac/internal/mbpta"
	"pubtac/internal/pool"
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
	// this shard failed; the coordinator recomputes it locally.
	CollectShard(ctx context.Context, spec ShardSpec) ([]float64, error)
}

// Fingerprint returns the SHA-256 of the canonical config encoding — the
// identity compared between coordinator and workers before a shard runs.
// The session-level fingerprint the service layer keys results on returns
// this same value.
func (c Config) Fingerprint() [sha256.Size]byte {
	return sha256.Sum256(c.AppendCanonical(nil))
}

// remoteCollector adapts the configured ShardCollector to one campaign's
// mbpta.RangeCollector: it splits every requested range into contiguous
// shards, dispatches them concurrently, copies successful shards into their
// index-addressed slots, and reports failed shards as leftovers for
// mbpta's local fallback. Shards never overlap and cover the range exactly,
// so the filled sample is bit-identical to local collection no matter how
// many shards, peers, or failures were involved.
func (a *Analyzer) remoteCollector(name, input string, original bool, root uint64) mbpta.RangeCollector {
	sc := a.cfg.Sharder
	fp := a.cfg.Fingerprint()
	cfgHex := hex.EncodeToString(fp[:])
	return func(ctx context.Context, dst []float64, offset int) ([]mbpta.Range, error) {
		n := len(dst)
		k := a.cfg.Shards
		if k <= 0 {
			k = sc.Shards()
		}
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		var mu sync.Mutex
		var leftover []mbpta.Range
		g, gctx := pool.WithContext(ctx)
		g.SetLimit(k)
		for i := 0; i < k; i++ {
			lo, hi := offset+i*n/k, offset+(i+1)*n/k
			if lo == hi {
				continue
			}
			g.Go(func() error {
				spec := ShardSpec{
					Config: cfgHex, Program: name, Input: input,
					Original: original, Root: root, Lo: lo, Hi: hi,
				}
				runs, err := sc.CollectShard(gctx, spec)
				if err != nil || len(runs) != hi-lo {
					// Cancellation aborts the campaign; any other failure
					// (peer down, foreign config, short reply) just demotes
					// this shard to the local fallback.
					if cerr := gctx.Err(); cerr != nil {
						return cerr
					}
					mu.Lock()
					leftover = append(leftover, mbpta.Range{Lo: lo, Hi: hi})
					mu.Unlock()
					return nil
				}
				copy(dst[lo-offset:hi-offset], runs)
				return nil
			})
		}
		if err := g.Wait(); err != nil {
			return nil, err
		}
		// Deterministic fallback order regardless of which goroutine failed
		// first (the fill itself is index-addressed either way).
		sort.Slice(leftover, func(i, j int) bool { return leftover[i].Lo < leftover[j].Lo })
		return leftover, nil
	}
}
