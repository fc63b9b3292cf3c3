package tac

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"pubtac/internal/cache"
	"pubtac/internal/pool"
	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file is the default group enumeration: candidates are screened by a
// reuse-distance prefilter computed from the index (index.go), survivors
// replay once per PinSeeds replacement stream through proc's misses-only
// replay with every group line in one set (proc.MissReplay.PinnedMisses, on
// the compilation's posting lists), and, when Config.Workers allows,
// surviving groups fan out over a bounded worker pool with deterministic
// ordered collection. The produced Analysis is bit-identical to the
// reference enumeration (tac.go): the prefilter bound provably dominates
// the replayed impact, so it only discards groups the relevance threshold
// would discard anyway, and every replacement draw of a surviving group's
// replay reproduces the reference order.

// evalChunk is the work-stealing granularity of the parallel evaluation:
// workers claim this many surviving groups per atomic fetch.
const evalChunk = 8

// minParallelGroups is the smallest survivor count worth fanning out;
// below it, goroutine startup would rival the replays themselves.
const minParallelGroups = 16

// analyzeCacheIndexed enumerates and evaluates conflict groups for one
// cache through the posting-list index, built on the side's dense line-ID
// projection in ct and on eng's per-line baseline replay (buildSideIndex).
// It mirrors analyzeCacheReference decision for decision; see the file
// comment for why results are bit-identical.
//
//pubtac:fastpath tac-enum
func analyzeCacheIndexed(ct *proc.CompiledTrace, eng *proc.Engine, kind trace.Kind, cfgC cache.Config,
	cfg Config, missCost, baselineMean float64) []Group {

	sx := buildSideIndex(ct, eng, kind, cfg)
	h := len(sx.hot)
	w := cfgC.Ways
	maxK := w + 1 + cfg.MaxExtraWays
	if maxK > h {
		maxK = h
	}
	thresh := cfg.MinImpactRel * baselineMean
	// The prefilter bound dominates the replayed impact only when extra
	// misses cannot lower the impact (missCost >= 0) and the replay itself
	// is well-defined (PinSeeds > 0; a zero-seed replay yields NaN impacts
	// that the threshold comparison keeps, so nothing may be pruned). A NaN
	// threshold (BaselineSeeds = 0) likewise keeps everything in the
	// reference arm — "impact < NaN" is false — so pruning against it
	// ("bound >= NaN", also false) would invert the contract.
	prefilter := missCost >= 0 && cfg.PinSeeds > 0 && !math.IsNaN(thresh)

	var out []Group
	var cands []uint16
	var bounds, baseSums []float64
	for k := w + 1; k <= maxK; k++ {
		// Presize the survivor lists to the candidate count (bounded: when
		// the prefilter prunes aggressively the worst case would be pure
		// waste, and append growth amortizes the rest). cands is checked
		// separately — a later, larger k needs k more slots per candidate.
		if want := binomialCapped(h, k, 1024); cap(bounds) < want || cap(cands) < want*k {
			cands = make([]uint16, 0, want*k)
			bounds = make([]float64, 0, want)
			baseSums = make([]float64, 0, want)
		}
		cands, bounds, baseSums = sx.enumerate(k, missCost, thresh, prefilter,
			cands[:0], bounds[:0], baseSums[:0])
		n := len(bounds)
		if n == 0 {
			continue
		}
		impacts := sx.evalCands(cands, bounds, k, w, cfg)
		prob := math.Pow(1/float64(cfgC.Sets), float64(k-1))
		for i := 0; i < n; i++ {
			impact := (impacts[i] - baseSums[i]) * missCost
			if impact < thresh {
				continue
			}
			// Group.Lines is allocated here, for survivors of the relevance
			// threshold only — candidates discarded by the prefilter or the
			// replay never materialize a lines slice.
			cand := cands[i*k : (i+1)*k]
			lines := make([]uint64, k)
			for j, hi := range cand {
				lines[j] = sx.hot[hi]
			}
			out = append(out, Group{Kind: kind, Lines: lines, Prob: prob, Impact: impact})
		}
	}
	return out
}

// enumerate visits every size-k hot-line combination in the reference
// order, applies the reuse-distance prefilter, and appends the survivors'
// packed hot indices, impact upper bounds and baseline sums. The bound per
// line b of a group G is min(occ_b, 1 + sum_{a in G} itl[a][b]): the first
// access is the only possible cold miss, and every further miss of b needs
// another group line accessed (and itself missing) inside b's reuse gap —
// a union bound over the pairwise interleavings, sound for random
// replacement where LRU-style "W distinct lines intervene" reasoning is
// not (a single interfering miss can evict b). Summed over the group and
// run through the same float operations as the real impact, the bound
// dominates it, so bound < thresh implies the reference arm would discard
// the group too.
func (sx *sideIndex) enumerate(k int, missCost, thresh float64, prefilter bool,
	cands []uint16, bounds, baseSums []float64) ([]uint16, []float64, []float64) {

	h := len(sx.hot)
	if k > h || k <= 0 {
		return cands, bounds, baseSums
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var pot int64
		var baseSum float64
		for _, b := range idx {
			s := int64(1)
			for _, a := range idx {
				if a != b {
					s += int64(sx.itl[a*h+b])
				}
			}
			if o := int64(sx.occ[b]); o < s {
				s = o
			}
			pot += s
			baseSum += sx.base[b]
		}
		bound := (float64(pot) - baseSum) * missCost
		if !prefilter || bound >= thresh {
			for _, b := range idx {
				cands = append(cands, uint16(b))
			}
			bounds = append(bounds, bound)
			baseSums = append(baseSums, baseSum)
		}
		// Advance to the next combination (same order as combinations).
		i := k - 1
		for i >= 0 && idx[i] == h-k+i {
			i--
		}
		if i < 0 {
			return cands, bounds, baseSums
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// binomialCapped returns C(n, k) clamped to limit (and on overflow).
func binomialCapped(n, k, limit int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := 1
	for i := 1; i <= k; i++ {
		v = v * (n - k + i) / i
		if v >= limit || v < 0 {
			return limit
		}
	}
	return v
}

// evalCands computes every surviving candidate's mean pinned miss count.
// With Workers > 1 and enough survivors, groups fan out over a bounded
// pool.Group: workers claim bound-descending chunks (heaviest replays
// first, for load balance) but write into impacts by candidate index, so
// the result — and therefore the Analysis — is independent of the worker
// count and schedule.
func (sx *sideIndex) evalCands(cands []uint16, bounds []float64, k, ways int, cfg Config) []float64 {
	n := len(bounds)
	impacts := make([]float64, n)
	workers := cfg.Workers
	if workers > (n+evalChunk-1)/evalChunk {
		workers = (n + evalChunk - 1) / evalChunk
	}
	if workers <= 1 || n < minParallelGroups {
		st := newPinState(cfg)
		for i := 0; i < n; i++ {
			impacts[i] = st.eval(sx, cands[i*k:(i+1)*k], ways, cfg)
		}
		return impacts
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := order[a], order[b]
		if bounds[oa] != bounds[ob] {
			return bounds[oa] > bounds[ob]
		}
		return oa < ob
	})
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
				hi := lo + evalChunk
				if hi > n {
					hi = n
				}
				for _, i := range order[lo:hi] {
					impacts[i] = st.eval(sx, cands[int(i)*k:(int(i)+1)*k], ways, cfg)
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
func (st *pinState) eval(sx *sideIndex, cand []uint16, ways int, cfg Config) float64 {
	st.ids = st.ids[:0]
	for _, hi := range cand {
		st.ids = append(st.ids, sx.ids[hi])
	}
	total := st.replay.PinnedMisses(sx.off, sx.post, st.ids, ways, st.init)
	return float64(total) / float64(cfg.PinSeeds)
}
