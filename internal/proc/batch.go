package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file implements the batched replay, the engine's only compiled
// replay: a block of up to BatchK run seeds shares every pass over the
// compiled ID stream, with struct-of-arrays set state.
//
// A campaign replays one immutable CompiledTrace 10^5-10^6 times, and once
// compilation has hoisted placement out of the access loop, the stream
// decode itself (token load, cache select, loop control) dominates. A block
// replays BatchK seeds per pass, so the decode is amortized across the
// block, and the per-seed state the inner loop touches — set bases, set
// contents, replacement and jitter generators, hit/miss counters — is laid
// out per seed so the K-wide inner loop is straight-line over dense arrays.
//
// Two further consequences of batching:
//
//   - Placement is evaluated in one flat loop: for every distinct line, the
//     per-seed placement hashes (the same modulo and keyed-hash logic as
//     cache.SetOf, with the policy hoisted out) are computed for all BatchK
//     seeds back to back.
//   - While computing placements, the block tracks per-seed set occupancy.
//     A seed whose placement maps at most Ways distinct lines into every
//     set can never evict, so its run is fully determined without touching
//     the stream: every line's first access misses, everything else hits.
//     Such seeds are answered analytically (drawing the same number of
//     jitter values the replay would); only conflicted seeds replay the
//     stream. Under parametric random placement with working sets well
//     below capacity — the paper's platform on the evaluation benchmarks —
//     most runs take the analytic path.
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

// BatchK is the largest number of run seeds replayed per pass over the
// compiled stream. Callers that split campaigns into blocks (package mbpta)
// keep block sizes in multiples of BatchK so every block is full. 8 seeds
// keep the per-block set state (BatchK copies of both caches' contents)
// inside L1 alongside the stream.
const BatchK = 8

// batchSide is the struct-of-arrays replay state of one cache for a block
// of BatchK seeds. Slices indexed by [id*BatchK+k] hold per-line, per-seed
// values; slices of BatchK contiguous per-seed blocks hold set state.
type batchSide struct {
	keys    [BatchK]uint64         // per-seed placement hash keys
	rands   [BatchK]rng.Xoshiro256 // per-seed replacement streams
	hits    [BatchK]uint64
	misses  [BatchK]uint64
	setBase []int32  // [id*BatchK+k] -> k*sets*ways + set*ways
	content []int32  // BatchK blocks of sets*ways line IDs
	lruTick []uint64 // BatchK blocks of per-way ticks (LRU only)
	occ     []uint16 // [k*sets+set] distinct-line occupancy scratch
}

// batchState is an engine's batched-replay scratch, reused across blocks.
// Callers fill seeds[:n] and read cycles[:n] back after runBlock.
type batchState struct {
	il, dl batchSide
	jgens  [BatchK]rng.Xoshiro256 // per-seed miss-jitter streams
	jsum   [BatchK]uint64         // per-seed accumulated jitter cycles
	seeds  [BatchK]uint64
	cycles [BatchK]uint64
	active [BatchK]int32 // seeds that need a stream replay this block
}

// CampaignBatchInto is CampaignInto on the batched replay: it fills dst
// with runs offset.. of the campaign rooted at root, replaying BatchK seeds
// per pass over the compiled stream and answering conflict-free seeds
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

// runBlock replays the first n (1..BatchK) seeds of the engine's block
// scratch and stores their execution times in cycles[:n].
func (e *Engine) runBlock(ct *CompiledTrace, n int) {
	b := e.batch
	conflict := b.il.placeBlock(&ct.il1, e.model.IL1.Placement == cache.RandomPlacement,
		&b.seeds, ilSeedSalt)
	conflict |= b.dl.placeBlock(&ct.dl1, e.model.DL1.Placement == cache.RandomPlacement,
		&b.seeds, dlSeedSalt)
	conflict &= 1<<n - 1

	jitter := e.model.Lat.MissJitter
	accesses := len(ct.stream)
	cold := len(ct.il1.lines) + len(ct.dl1.lines)
	clean := e.cyclesFor(accesses, uint64(accesses-cold), uint64(cold), 0)

	active := b.active[:0]
	for k := 0; k < n; k++ {
		if jitter > 0 {
			b.jgens[k].Reseed(rng.Mix64(b.seeds[k] ^ jitterSeedSalt))
			b.jsum[k] = 0
		}
		switch {
		case conflict&(1<<k) != 0:
			active = append(active, int32(k))
		case jitter > 0:
			// A conflict-free run misses exactly on each line's first
			// access, so it draws exactly cold jitter values; their sum is
			// order-independent across the two caches' interleaving.
			g := &b.jgens[k]
			var js uint64
			for i := 0; i < cold; i++ {
				js += g.Uint64() % jitter
			}
			b.cycles[k] = clean + js
		default:
			b.cycles[k] = clean
		}
	}
	if len(active) == 0 {
		return
	}

	b.il.prepareReplay(&ct.il1, &b.seeds, active, ilSeedSalt)
	b.dl.prepareReplay(&ct.dl1, &b.seeds, active, dlSeedSalt)

	ilCfg, dlCfg := e.model.IL1, e.model.DL1
	if ilCfg.Ways == 2 && dlCfg.Ways == 2 &&
		ilCfg.Replacement == cache.RandomReplacement &&
		dlCfg.Replacement == cache.RandomReplacement {
		e.batchReplay2WayRandom(ct, active, jitter)
	} else {
		e.batchReplayGeneric(ct, active, jitter)
	}
	for _, k := range active {
		b.cycles[k] = e.cyclesFor(accesses,
			b.il.hits[k]+b.dl.hits[k], b.il.misses[k]+b.dl.misses[k], b.jsum[k])
	}
}

// cyclesFor converts classification counts into the additive timing model:
// the in-order pipeline's cost is linear in hits and misses, so the replay
// loops only classify accesses and the arithmetic happens once per run.
// jitterCycles carries the per-miss randomized jitter accumulated in replay
// order (zero when MissJitter is off).
func (e *Engine) cyclesFor(n int, hits, misses, jitterCycles uint64) uint64 {
	lat := e.model.Lat
	return lat.Issue*uint64(n) + lat.Hit*hits + lat.Miss*misses + jitterCycles
}

// placeBlock sizes the side's scratch, computes every (line, seed) set base
// — the same modulo and keyed-hash logic as cache.SetOf, with the policy
// hoisted out of the loop — and returns the bitmask of seeds whose
// placement overflows some set's associativity (those must replay; the rest
// cannot evict).
func (bs *batchSide) placeBlock(side *compiledSide, random bool,
	seeds *[BatchK]uint64, salt uint64) uint32 {

	nl := len(side.lines)
	nways := side.sets * side.ways
	if cap(bs.setBase) < nl*BatchK {
		bs.setBase = make([]int32, nl*BatchK)
	}
	bs.setBase = bs.setBase[:nl*BatchK]
	if cap(bs.content) < nways*BatchK {
		bs.content = make([]int32, nways*BatchK)
		bs.lruTick = make([]uint64, nways*BatchK)
		bs.occ = make([]uint16, side.sets*BatchK)
	}
	bs.content = bs.content[:nways*BatchK]
	bs.lruTick = bs.lruTick[:nways*BatchK]
	bs.occ = bs.occ[:side.sets*BatchK]

	if random {
		for k := 0; k < BatchK; k++ {
			bs.keys[k] = cache.PlacementKey(rng.Mix64(seeds[k] ^ salt))
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
// replacement streams reseeded, counters cleared, and each active seed's
// state block invalidated. The replay touches no set outside the seed's
// setBase, so when the trace has few distinct lines it is cheaper to clear
// just their sets (duplicates are idempotent) than the whole block.
// lruTick needs no reset: LRU victims are only ever chosen among ways
// filled this run, whose ticks were all written this run (the reference
// cache relies on the same property across its Flush).
func (bs *batchSide) prepareReplay(side *compiledSide, seeds *[BatchK]uint64,
	active []int32, salt uint64) {

	nl := len(side.lines)
	nways := side.sets * side.ways
	ways := int32(side.ways)
	sparse := nl*side.ways < nways
	for _, k := range active {
		bs.rands[k].Reseed(cache.ReplacementSeed(rng.Mix64(seeds[k] ^ salt)))
		bs.hits[k], bs.misses[k] = 0, 0
		if sparse {
			for id := 0; id < nl; id++ {
				base := bs.setBase[id*BatchK+int(k)]
				for w := int32(0); w < ways; w++ {
					bs.content[base+w] = invalidID
				}
			}
		} else {
			blk := bs.content[int(k)*nways : (int(k)+1)*nways]
			for i := range blk {
				blk[i] = invalidID
			}
		}
	}
}

// batchReplay2WayRandom is the specialized loop for the paper's platform —
// both caches 2-way with random replacement. With the set base precomputed
// per line, an access is two compares against the set's ways, and LRU
// bookkeeping is skipped (random replacement never reads it). Per token,
// the access runs for every active seed against that seed's state block
// before the next token is decoded.
func (e *Engine) batchReplay2WayRandom(ct *CompiledTrace, active []int32, jitter uint64) {
	b := e.batch
	il, dl := &b.il, &b.dl
	ilSet, ilC := il.setBase, il.content
	dlSet, dlC := dl.setBase, dl.content
	for _, tok := range ct.stream {
		if tok&dataBit == 0 {
			id := int32(tok)
			row := int(tok) * BatchK
			for _, k := range active {
				base := ilSet[row+int(k)]
				if ilC[base] == id || ilC[base+1] == id {
					il.hits[k]++
					continue
				}
				il.misses[k]++
				switch {
				case ilC[base] == invalidID:
					ilC[base] = id
				case ilC[base+1] == invalidID:
					ilC[base+1] = id
				default:
					ilC[base+int32(il.rands[k].Intn(2))] = id
				}
				if jitter > 0 {
					b.jsum[k] += b.jgens[k].Uint64() % jitter
				}
			}
		} else {
			id := int32(tok &^ dataBit)
			row := int(id) * BatchK
			for _, k := range active {
				base := dlSet[row+int(k)]
				if dlC[base] == id || dlC[base+1] == id {
					dl.hits[k]++
					continue
				}
				dl.misses[k]++
				switch {
				case dlC[base] == invalidID:
					dlC[base] = id
				case dlC[base+1] == invalidID:
					dlC[base+1] = id
				default:
					dlC[base+int32(dl.rands[k].Intn(2))] = id
				}
				if jitter > 0 {
					b.jsum[k] += b.jgens[k].Uint64() % jitter
				}
			}
		}
	}
}

// batchReplayGeneric handles every other policy combination (modulo
// placement, LRU replacement, other associativities) with full reference
// semantics for every active seed. The per-cache access tick is shared — it counts stream positions,
// which are identical across seeds.
func (e *Engine) batchReplayGeneric(ct *CompiledTrace, active []int32, jitter uint64) {
	b := e.batch
	ilCfg, dlCfg := e.model.IL1, e.model.DL1
	ilLRU := ilCfg.Replacement == cache.LRUReplacement
	dlLRU := dlCfg.Replacement == cache.LRUReplacement
	var ilTick, dlTick uint64
	for _, tok := range ct.stream {
		if tok&dataBit == 0 {
			ilTick++
			id := int32(tok)
			for _, k := range active {
				if !b.il.accessBatch(k, id, ilCfg.Ways, ilLRU, ilTick) && jitter > 0 {
					b.jsum[k] += b.jgens[k].Uint64() % jitter
				}
			}
		} else {
			dlTick++
			id := int32(tok &^ dataBit)
			for _, k := range active {
				if !b.dl.accessBatch(k, id, dlCfg.Ways, dlLRU, dlTick) && jitter > 0 {
					b.jsum[k] += b.jgens[k].Uint64() % jitter
				}
			}
		}
	}
}

// accessBatch replays one access for seed k against the seed's state block
// with full reference semantics: cache.AccessLine's hit scan, fill of the
// first empty way, and random or LRU victim choice. tick is the per-cache
// access counter, already incremented for this access.
func (bs *batchSide) accessBatch(k int32, id int32, ways int, lru bool, tick uint64) bool {
	base := bs.setBase[int(id)*BatchK+int(k)]
	for w := int32(0); w < int32(ways); w++ {
		if bs.content[base+w] == id {
			bs.hits[k]++
			bs.lruTick[base+w] = tick
			return true
		}
	}
	bs.misses[k]++
	for w := int32(0); w < int32(ways); w++ {
		if bs.content[base+w] == invalidID {
			bs.content[base+w] = id
			bs.lruTick[base+w] = tick
			return false
		}
	}
	victim := int32(0)
	if !lru {
		victim = int32(bs.rands[k].Intn(ways))
	} else {
		oldest := bs.lruTick[base]
		for w := int32(1); w < int32(ways); w++ {
			if bs.lruTick[base+w] < oldest {
				oldest = bs.lruTick[base+w]
				victim = w
			}
		}
	}
	bs.content[base+victim] = id
	bs.lruTick[base+victim] = tick
	return false
}
