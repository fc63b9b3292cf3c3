package tac

import (
	"context"
	"math"
	"sync/atomic"

	"pubtac/internal/cache"
	"pubtac/internal/pool"
	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file is the default group enumeration. It walks the reference
// enumeration's combinations of hot lines (combinations, tac.go) in the
// same order and replays every candidate group once per PinSeeds
// replacement stream through proc's misses-only replay, with every group
// line in one set (proc.MissReplay.PinnedMisses, on the compilation's
// posting lists held by the index, index.go). When Config.Workers allows,
// the groups fan out over a bounded worker pool that writes each impact at
// its group's index. Every replay draws the reference scan's victims at the
// same misses, and each group's baseline sum is taken in the same order, so
// the Analysis is bit-identical to the reference arm's.

// evalChunk is the work-stealing granularity of the parallel evaluation:
// workers claim this many candidate groups per atomic fetch.
const evalChunk = 8

// minParallelGroups is the smallest candidate count worth fanning out;
// below it, goroutine startup would rival the replays themselves.
const minParallelGroups = 16

// analyzeCacheIndexed lists and evaluates the conflict groups of one
// cache through the posting-list index, built on the side's dense line-ID
// projection in ct and on eng's per-line baseline replay (buildSideIndex).
// It mirrors analyzeCacheReference decision for decision; see the file
// comment for why results are bit-identical.
//
//pubtac:fastpath tac-enum
func analyzeCacheIndexed(ct *proc.CompiledTrace, eng *proc.Engine, kind trace.Kind, cfgC cache.Config,
	cfg Config, missCost, baselineMean float64) []Group {

	sx := buildSideIndex(ct, eng, kind, cfg)
	w := cfgC.Ways
	maxK := min(w+1+cfg.MaxExtraWays, len(sx.hot))
	var out []Group
	var cands []int32
	for k := w + 1; k <= maxK; k++ {
		// cands packs k hot indices per group, in combinations' order.
		cands = cands[:0]
		combinations(len(sx.hot), k, func(idx []int) {
			for _, hi := range idx {
				cands = append(cands, int32(hi))
			}
		})
		prob := math.Pow(1/float64(cfgC.Sets), float64(k-1))
		for i, pinned := range sx.evalCands(cands, k, w, cfg) {
			cand := cands[i*k : (i+1)*k]
			var baseSum float64
			for _, hi := range cand {
				baseSum += sx.base[hi]
			}
			impact := (pinned - baseSum) * missCost
			if impact < cfg.MinImpactRel*baselineMean {
				continue
			}
			lines := make([]uint64, k)
			for j, hi := range cand {
				lines[j] = sx.hot[hi]
			}
			out = append(out, Group{Kind: kind, Lines: lines, Prob: prob, Impact: impact})
		}
	}
	return out
}

// evalCands returns the mean pinned miss count of every candidate group in
// cands, k hot indices per group. With Workers > 1 and enough groups, the
// groups fan out over a bounded pool.Group: workers claim chunks in index
// order and write each mean at its group's index, so the result — and
// therefore the Analysis — is independent of the worker count and
// schedule.
func (sx *sideIndex) evalCands(cands []int32, k, ways int, cfg Config) []float64 {
	n := len(cands) / k
	impacts := make([]float64, n)
	workers := min(cfg.Workers, (n+evalChunk-1)/evalChunk)
	if workers <= 1 || n < minParallelGroups {
		st := newPinState(cfg)
		for i := range impacts {
			impacts[i] = st.eval(sx, cands[i*k:(i+1)*k], ways, cfg)
		}
		return impacts
	}
	var next atomic.Int64
	g, _ := pool.WithContext(context.Background())
	g.SetLimit(workers)
	for t := 0; t < workers; t++ {
		g.Go(func() error {
			st := newPinState(cfg)
			for {
				lo := int(next.Add(evalChunk)) - evalChunk
				if lo >= n {
					return nil
				}
				for i := lo; i < min(lo+evalChunk, n); i++ {
					impacts[i] = st.eval(sx, cands[i*k:(i+1)*k], ways, cfg)
				}
			}
		})
	}
	// Tasks return no errors and the context is private, so Wait only
	// synchronizes completion (making the impacts writes visible here).
	_ = g.Wait()
	return impacts
}

// pinState is one evaluator's scratch for the pinned replay: the per-seed
// initial replacement-stream states (derived once, copied per group instead
// of re-hashed), the current group's line IDs and the replay's scratch. One
// instance serves any number of groups; parallel workers each own one.
type pinState struct {
	init   []rng.Xoshiro256 // per pin seed: replacement stream's initial state
	ids    []int32          // the current group's line IDs
	replay proc.MissReplay
}

func newPinState(cfg Config) *pinState {
	st := &pinState{init: make([]rng.Xoshiro256, cfg.PinSeeds)}
	for s := range st.init {
		st.init[s].Reseed(rng.Stream(cfg.Seed^0x51AC, s))
	}
	return st
}

// eval replays the group's accesses against a single pinned set of ways
// ways with random replacement and returns the mean miss count over the
// PinSeeds replacement streams — pinnedImpact's event "all group lines
// co-mapped", computed from the postings instead of a materialized
// subsequence. proc's misses-only replay visits only the group's misses,
// at the same positions and with the same draws as the reference scan, and
// integer miss totals sum exactly in a float64, so the mean is
// bit-identical.
func (st *pinState) eval(sx *sideIndex, cand []int32, ways int, cfg Config) float64 {
	st.ids = st.ids[:0]
	for _, hi := range cand {
		st.ids = append(st.ids, sx.ids[hi])
	}
	total := st.replay.PinnedMisses(sx.off, sx.post, st.ids, ways, st.init)
	return float64(total) / float64(cfg.PinSeeds)
}
