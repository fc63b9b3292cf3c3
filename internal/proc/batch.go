package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file implements the batched replay, the engine's only compiled
// replay: a block of up to BatchK seeds shares every pass over one cache's
// compiled ID sequence, with struct-of-arrays set state.
//
// A campaign replays one immutable CompiledTrace 10^5-10^6 times, and once
// compilation has hoisted placement out of the access loop, the sequence
// decode itself (ID load, loop control) dominates. A block replays BatchK
// seeds per pass, so the decode is amortized across the block, and the
// per-seed state the inner loop touches — set bases, set contents,
// replacement generators, miss counters — is laid out per seed so the
// K-wide inner loop is straight-line over dense arrays.
//
// IL1 and DL1 each have their own placement key and replacement stream, and
// a cache's victims are drawn in that cache's own access order, so a run is
// two independent per-cache replays whose miss counts add up. The per-cache
// replay works on cache seeds — the seeds cache.Cache.Reseed takes — and
// counts misses per (line, seed): a campaign derives each cache's seeds from
// its run seeds and sums lines into cycles; Engine.LineMisses sums seeds
// into per-line totals for package tac's baseline.
//
// Three further consequences of batching:
//
//   - Placement is evaluated in one flat loop: for every distinct line, the
//     per-seed placement hashes (the same modulo and keyed-hash logic as
//     cache.SetOf, with the policy hoisted out) are computed for all BatchK
//     seeds back to back.
//   - While computing placements, the block tracks per-seed set occupancy.
//     A seed whose placement maps at most Ways distinct lines into every
//     set of a cache can never evict there, so every line of that cache
//     misses exactly once: such seeds are answered analytically, and only
//     the seeds that overflow a set of this cache replay its IDs. Under
//     parametric random placement with working sets well below capacity —
//     the paper's platform on the evaluation benchmarks — most runs take
//     the analytic path on both caches.
//   - Hits are never tracked (hits = accesses - misses), and miss jitter is
//     drawn after the replay: the reference replay draws one jitter value
//     per miss from the run's jitter stream, so the run's jitter is the sum
//     of that stream's first misses draws.
//
// A block shorter than BatchK (Run's single seed, a campaign's trailing
// runs) still places all BatchK slots, so the placement loops keep their
// constant bounds; the conflict bits of the slots past the block's length
// are masked off, and those slots never replay or report.
//
// Every decision a replayed seed makes draws from the same generators in
// the same order as the reference replay with that seed, so results are
// bit-identical to it; the equivalence tests in batch_test.go and
// compile_test.go enforce this against the uncompiled reference engine.

// BatchK is the largest number of seeds replayed per pass over a cache's
// compiled IDs. Callers that split campaigns into blocks (package mbpta)
// keep block sizes in multiples of BatchK so every block is full. 8 seeds
// keep the per-block set state (BatchK copies of a cache's contents) inside
// L1 alongside the IDs.
const BatchK = 8

// batchSide is the struct-of-arrays replay state of one cache for a block
// of BatchK cache seeds. Slices indexed by [id*BatchK+k] hold per-line,
// per-seed values; slices of BatchK contiguous per-seed blocks hold set
// state.
type batchSide struct {
	cfg     cache.Config           // the engine's configuration of this cache
	keys    [BatchK]uint64         // per-seed placement hash keys
	rands   [BatchK]rng.Xoshiro256 // per-seed replacement streams
	active  [BatchK]int32          // seeds that replay this block
	setBase []int32                // [id*BatchK+k] -> k*sets*ways + set*ways
	misses  []uint32               // [id*BatchK+k] misses of line id (replayed seeds)
	content []int32                // BatchK blocks of sets*ways line IDs
	lruTick []uint64               // BatchK blocks of per-way ticks (LRU only)
	occ     []uint16               // [k*sets+set] distinct-line occupancy scratch
}

// batchState is an engine's batched-replay scratch, reused across blocks.
// Callers fill seeds[:n] and read cycles[:n] back after runBlock.
type batchState struct {
	il, dl batchSide
	seeds  [BatchK]uint64
	cycles [BatchK]uint64
}

// CampaignBatchInto is CampaignInto on the batched replay: it fills dst
// with runs offset.. of the campaign rooted at root, replaying BatchK seeds
// per pass over each cache's compiled IDs and answering conflict-free seeds
// analytically. A trailing len(dst)%BatchK runs form one shorter block.
// Results are bit-identical to the reference replay.
//
//pubtac:fastpath campaign
func (e *Engine) CampaignBatchInto(tr trace.Trace, dst []float64, root uint64, offset int) {
	if len(dst) == 0 {
		return
	}
	ct := e.compiledFor(tr)
	b := e.batch
	for i := 0; i < len(dst); i += BatchK {
		blk := dst[i:min(i+BatchK, len(dst))]
		for k := range blk {
			b.seeds[k] = rng.Stream(root, offset+i+k)
		}
		e.runBlock(ct, len(blk))
		for k := range blk {
			blk[k] = float64(b.cycles[k])
		}
	}
}

// runBlock replays the first n (1..BatchK) run seeds of the engine's block
// scratch and stores their execution times in cycles[:n]. The in-order
// pipeline's cost is additive, so cycles follow from each run's miss count
// and the jitter its misses draw.
func (e *Engine) runBlock(ct *CompiledTrace, n int) {
	b := e.batch
	var misses [BatchK]uint64
	b.il.addMisses(&ct.il1, &b.seeds, ilSeedSalt, n, &misses)
	b.dl.addMisses(&ct.dl1, &b.seeds, dlSeedSalt, n, &misses)

	lat := e.model.Lat
	accesses := uint64(ct.Len())
	for k := 0; k < n; k++ {
		m := misses[k]
		cycles := lat.Issue*accesses + lat.Hit*(accesses-m) + lat.Miss*m
		if lat.MissJitter > 0 {
			e.jitter.Reseed(rng.Mix64(b.seeds[k] ^ jitterSeedSalt))
			for i := uint64(0); i < m; i++ {
				cycles += e.jitter.Uint64() % lat.MissJitter
			}
		}
		b.cycles[k] = cycles
	}
}

// addMisses runs one cache for the first n run seeds of a block, deriving
// each cache seed as Mix64(run seed ^ salt), and adds each run's miss count
// on this cache to misses.
func (bs *batchSide) addMisses(side *compiledSide, runSeeds *[BatchK]uint64, salt uint64,
	n int, misses *[BatchK]uint64) {

	var seeds [BatchK]uint64
	for k := range seeds {
		seeds[k] = rng.Mix64(runSeeds[k] ^ salt)
	}
	replayed := bs.missBlock(side, &seeds, n)
	for k := 0; k < n; k++ {
		if replayed&(1<<k) == 0 {
			misses[k] += uint64(len(side.lines))
			continue
		}
		for id := range side.lines {
			misses[k] += uint64(bs.misses[id*BatchK+k])
		}
	}
}

// LineMisses replays the engine's compiled trace on the cache serving
// accesses of kind k once per cache seed in seeds — the seed
// cache.Cache.Reseed takes — and returns, per distinct line of that cache
// in SideLines order, its miss count summed over the seeds. The engine must
// hold a compiled trace (SetCompiled, or any earlier Run or campaign).
func (e *Engine) LineMisses(k trace.Kind, seeds []uint64) []uint64 {
	if e.ct == nil {
		panic("proc: LineMisses on an engine without a compiled trace")
	}
	side, bs := e.ct.side(k), &e.batch.dl
	if k == trace.Instr {
		bs = &e.batch.il
	}
	out := make([]uint64, len(side.lines))
	var blk [BatchK]uint64
	for i := 0; i < len(seeds); i += BatchK {
		n := copy(blk[:], seeds[i:])
		replayed := bs.missBlock(side, &blk, n)
		for id := range out {
			for j := 0; j < n; j++ {
				if replayed&(1<<j) == 0 {
					out[id]++
				} else {
					out[id] += uint64(bs.misses[id*BatchK+j])
				}
			}
		}
	}
	return out
}

// missBlock runs one cache for the cache seeds seeds[:n] and returns the
// bitmask of the seeds it replayed; for those, misses[id*BatchK+k] holds
// line id's miss count. Every other seed maps at most Ways lines into each
// set, so it misses exactly once per distinct line.
func (bs *batchSide) missBlock(side *compiledSide, seeds *[BatchK]uint64, n int) uint32 {
	conflict := bs.placeBlock(side, seeds) & (1<<n - 1)
	if conflict == 0 {
		return 0
	}
	active := bs.active[:0]
	for k := int32(0); k < int32(n); k++ {
		if conflict&(1<<k) != 0 {
			active = append(active, k)
		}
	}
	bs.prepareReplay(side, seeds, active)
	if bs.cfg.Ways == 2 && bs.cfg.Replacement == cache.RandomReplacement {
		bs.replay2WayRandom(side.ids, active)
	} else {
		bs.replayGeneric(side.ids, active)
	}
	return conflict
}

// placeBlock sizes the side's scratch, computes every (line, seed) set base
// — the same modulo and keyed-hash logic as cache.SetOf, with the policy
// hoisted out of the loop — and returns the bitmask of seeds whose
// placement overflows some set's associativity (those must replay; the rest
// cannot evict).
func (bs *batchSide) placeBlock(side *compiledSide, seeds *[BatchK]uint64) uint32 {
	nl := len(side.lines)
	nways := side.sets * side.ways
	if cap(bs.setBase) < nl*BatchK {
		bs.setBase = make([]int32, nl*BatchK)
		bs.misses = make([]uint32, nl*BatchK)
	}
	bs.setBase = bs.setBase[:nl*BatchK]
	bs.misses = bs.misses[:nl*BatchK]
	if cap(bs.content) < nways*BatchK {
		bs.content = make([]int32, nways*BatchK)
		bs.lruTick = make([]uint64, nways*BatchK)
		bs.occ = make([]uint16, side.sets*BatchK)
	}
	bs.content = bs.content[:nways*BatchK]
	bs.lruTick = bs.lruTick[:nways*BatchK]
	bs.occ = bs.occ[:side.sets*BatchK]

	random := bs.cfg.Placement == cache.RandomPlacement
	if random {
		for k := 0; k < BatchK; k++ {
			bs.keys[k] = cache.PlacementKey(seeds[k])
		}
	}

	// More distinct lines than ways fit: the pigeonhole principle makes
	// every seed conflicted, so skip the occupancy bookkeeping.
	trackOcc := nl <= nways
	if trackOcc {
		for i := range bs.occ {
			bs.occ[i] = 0
		}
	}

	mask := uint64(side.sets - 1)
	ways := int32(side.ways)
	block := int32(nways)
	maxOcc := uint16(side.ways)
	var conflict uint32
	if !trackOcc {
		conflict = (1 << BatchK) - 1
	}
	for id, line := range side.lines {
		row := id * BatchK
		if !random {
			set := int32(line & mask)
			for k := int32(0); k < BatchK; k++ {
				bs.setBase[row+int(k)] = k*block + set*ways
			}
			if trackOcc {
				for k := 0; k < BatchK; k++ {
					o := k*side.sets + int(set)
					if bs.occ[o]++; bs.occ[o] > maxOcc {
						conflict |= 1 << k
					}
				}
			}
			continue
		}
		for k := 0; k < BatchK; k++ {
			set := int(rng.Mix64(line^bs.keys[k]) & mask)
			bs.setBase[row+k] = int32(k)*block + int32(set)*ways
			if trackOcc {
				o := k*side.sets + set
				if bs.occ[o]++; bs.occ[o] > maxOcc {
					conflict |= 1 << k
				}
			}
		}
	}
	return conflict
}

// prepareReplay readies the side's state for the seeds that must replay:
// replacement streams reseeded, per-line miss counters cleared, and each
// active seed's state block invalidated. The replay touches no set outside
// the seed's setBase, so when the trace has few distinct lines it is
// cheaper to clear just their sets (duplicates are idempotent) than the
// whole block. lruTick needs no reset: LRU victims are only ever chosen
// among ways filled this run, whose ticks were all written this run (the
// reference cache relies on the same property across its Flush).
func (bs *batchSide) prepareReplay(side *compiledSide, seeds *[BatchK]uint64, active []int32) {
	nl := len(side.lines)
	nways := side.sets * side.ways
	ways := int32(side.ways)
	sparse := nl*side.ways < nways
	for _, k := range active {
		bs.rands[k].Reseed(cache.ReplacementSeed(seeds[k]))
		for id := 0; id < nl; id++ {
			bs.misses[id*BatchK+int(k)] = 0
			if sparse {
				base := bs.setBase[id*BatchK+int(k)]
				for w := int32(0); w < ways; w++ {
					bs.content[base+w] = invalidID
				}
			}
		}
		if !sparse {
			blk := bs.content[int(k)*nways : (int(k)+1)*nways]
			for i := range blk {
				blk[i] = invalidID
			}
		}
	}
}

// replay2WayRandom is the specialized loop for the paper's platform — a
// 2-way cache with random replacement. With the set base precomputed per
// line, an access is two compares against the set's ways, and LRU
// bookkeeping is skipped (random replacement never reads it). Per ID, the
// access runs for every active seed against that seed's state block before
// the next ID is decoded.
func (bs *batchSide) replay2WayRandom(ids, active []int32) {
	set, c, misses := bs.setBase, bs.content, bs.misses
	for _, id := range ids {
		row := int(id) * BatchK
		for _, k := range active {
			base := set[row+int(k)]
			if c[base] == id || c[base+1] == id {
				continue
			}
			misses[row+int(k)]++
			switch {
			case c[base] == invalidID:
				c[base] = id
			case c[base+1] == invalidID:
				c[base+1] = id
			default:
				c[base+int32(bs.rands[k].Intn(2))] = id
			}
		}
	}
}

// replayGeneric handles every other configuration (modulo placement, LRU
// replacement, other associativities) with full cache.AccessLine semantics
// for every active seed: the hit scan, a fill of the first empty way, and a
// random or LRU victim. The LRU tick is the access's position in the
// cache's sequence, which is the same for every seed.
func (bs *batchSide) replayGeneric(ids, active []int32) {
	ways := int32(bs.cfg.Ways)
	lru := bs.cfg.Replacement == cache.LRUReplacement
	c, ticks, misses := bs.content, bs.lruTick, bs.misses
	for pos, id := range ids {
		tick := uint64(pos)
		row := int(id) * BatchK
	seeds:
		for _, k := range active {
			base := bs.setBase[row+int(k)]
			for w := int32(0); w < ways; w++ {
				if c[base+w] == id {
					ticks[base+w] = tick
					continue seeds
				}
			}
			misses[row+int(k)]++
			victim := int32(0)
			for victim < ways && c[base+victim] != invalidID {
				victim++
			}
			if victim == ways {
				victim = 0
				if lru {
					for w := int32(1); w < ways; w++ {
						if ticks[base+w] < ticks[base+victim] {
							victim = w
						}
					}
				} else {
					victim = int32(bs.rands[k].Intn(int(ways)))
				}
			}
			c[base+victim] = id
			ticks[base+victim] = tick
		}
	}
}
