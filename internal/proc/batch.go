package proc

import (
	"math"
	"math/bits"

	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file implements the batched replay, the engine's only compiled
// replay. IL1 and DL1 each have their own placement key and replacement
// stream, and a cache's victims are drawn in that cache's own access order,
// so a run is two independent per-cache replays whose miss counts add up.
// The per-cache replay works on cache seeds — the seeds cache.Cache.Reseed
// takes — and sums each seed's misses, which a campaign turns into cycles;
// only Engine.LineMisses asks for per-line totals, for package tac's
// baseline. A block of up to BatchK seeds runs one cache in two steps:
//
//   - Placement: for every distinct line, the per-seed set (cache.SetOf's
//     logic, with the policy hoisted out) is computed for all BatchK seeds
//     back to back, counting each seed's set occupancy and keeping, per
//     set, the latest last access among the lines placed there so far.
//     Lines enter a set in order of first access, which is their dense-ID
//     order, so a line arriving at a set that already holds Ways lines
//     finds it full. If every earlier line of that set has had its last
//     access by then, whatever it evicts is never accessed again. A seed
//     none of whose arrivals at a full set meets a still-live earlier line
//     therefore misses exactly once per distinct line, whatever its
//     victims, under random and LRU replacement alike: it is answered
//     analytically, and only the other seeds replay. A seed that maps at
//     most Ways lines into every set never evicts at all, which covers most
//     runs of the paper's platform on the evaluation benchmarks; on ns,
//     whose lines but one each live within a few dozen DL1 accesses, most
//     seeds that overflow a set evict only dead lines.
//     A block shorter than BatchK (Run's single seed, a campaign's trailing
//     runs) still places all BatchK slots, so the loops keep constant
//     bounds, and masks off the slots past its length.
//   - Replay of the seeds that may evict a live line. Under random
//     replacement a hit changes no state and only an overflowing set can
//     evict, so MissReplay skips hits: a line whose set holds at most Ways
//     lines takes one miss and draws no victim, and the lines of the
//     overflowing sets jump from miss to miss through the posting lists.
//     Under LRU a hit updates recency, so replayLRU walks the cache's whole
//     ID sequence for the block's replayed seeds at once.
//
// Hits are accesses minus misses, and miss jitter is drawn after the
// replay: the reference replay draws one jitter value per miss from the
// run's jitter stream, so the run's jitter is the sum of that stream's
// first misses draws. Every miss of a replayed seed falls at the same
// position, and every victim comes from the same generator in the same
// order, as in the reference replay with that seed, so results are
// bit-identical to it; the equivalence tests in batch_test.go and
// compile_test.go and FuzzCampaignMatchesReference enforce this.

// BatchK is the number of seeds whose placements one block evaluates
// together. Callers that split campaigns into blocks (package mbpta) keep
// block sizes in multiples of BatchK so every block is full. 8 seeds keep
// the per-block set state (BatchK copies of a cache's contents) inside L1.
const BatchK = 8

// batchSide is the struct-of-arrays replay state of one cache for a block
// of BatchK cache seeds. Slices indexed by [id*BatchK+k] hold per-line,
// per-seed values; the others hold BatchK contiguous per-seed blocks.
type batchSide struct {
	cfg     cache.Config   // the engine's configuration of this cache
	keys    [BatchK]uint64 // per-seed placement hash keys
	rand    rng.Xoshiro256 // replacement stream of the seed being replayed
	set     []int32        // [id*BatchK+k] -> k*sets + set of line id
	tally   []setTally     // [k*sets+set] the lines placed in each set
	content []int32        // [(k*sets+set)*ways+way] set contents: a tag, 0 if empty
	lruTick []uint64       // per-way ticks, laid out like content (LRU only)
	ev      MissReplay     // the misses-only replay (random replacement)
}

// setTally counts the lines placeBlock has placed in one set of one seed
// and keeps the latest last access among them.
type setTally struct{ lines, live int32 }

// batchState is an engine's batched-replay scratch, reused across blocks.
// Callers fill seeds[:n] and read cycles[:n] back after runBlock.
type batchState struct {
	il, dl batchSide
	seeds  [BatchK]uint64
	cycles [BatchK]uint64
}

// CampaignInto fills dst with the execution times of runs offset,
// offset+1, ... of the campaign rooted at root; run i depends only on
// (root, i). Runs replay BatchK seeds per block of the batched replay (a
// trailing len(dst)%BatchK runs form one shorter block), bit-identical to
// the reference replay that UseReference selects instead.
//
//pubtac:fastpath campaign
func (e *Engine) CampaignInto(tr trace.Trace, dst []float64, root uint64, offset int) {
	if e.reference {
		for i := range dst {
			dst[i] = float64(e.Run(tr, rng.Stream(root, offset+i)))
		}
		return
	}
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
	bs.missBlock(side, &seeds, n, misses, nil)
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
	var blk, misses [BatchK]uint64 // misses: per-seed totals, unread here
	for i := 0; i < len(seeds); i += BatchK {
		n := copy(blk[:], seeds[i:])
		bs.missBlock(side, &blk, n, &misses, out)
	}
	return out
}

// missBlock runs one cache for the cache seeds seeds[:n] and adds each
// seed's miss count to misses[k]. A seed that placeBlock leaves unflagged,
// whether it overflows a set or not, evicts only lines never accessed
// again, so it misses exactly once per distinct line; the flagged seeds
// replay. When lines is not nil, missBlock also adds each line's misses,
// summed over the seeds, to lines[id] (Engine.LineMisses); campaigns pass
// nil and never touch a per-line count.
func (bs *batchSide) missBlock(side *compiledSide, seeds *[BatchK]uint64, n int,
	misses *[BatchK]uint64, lines []uint64) {

	conflict := bs.placeBlock(side, seeds) & (1<<n - 1)
	for k := 0; k < n; k++ {
		if conflict&(1<<k) == 0 {
			misses[k] += uint64(len(side.lines))
		}
	}
	if lines != nil {
		analytic := uint64(n - bits.OnesCount32(conflict))
		for id := range lines {
			lines[id] += analytic
		}
	}
	if conflict == 0 {
		return
	}
	if bs.cfg.Replacement == cache.LRUReplacement {
		bs.replayLRU(side, conflict, misses, lines)
		return
	}
	for m := conflict; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		bs.rand.Reseed(cache.ReplacementSeed(seeds[k]))
		misses[k] += bs.replayOverflow(side, k)
		if lines != nil {
			bs.addLineMisses(side, k, lines)
		}
	}
}

// placeBlock sizes the side's scratch, computes every (line, seed) set —
// the same modulo and keyed-hash logic as cache.SetOf, with the policy
// hoisted out of the loop — tallies each seed's sets, and returns the
// bitmask of seeds that must replay. Lines arrive in order of first
// access; a seed is flagged when a line arrives at one of its sets that
// already holds Ways or more lines while the latest last access among
// them comes after the new line's first access, so that the eviction may
// take a line that is accessed again. Every other seed, overflowing or
// not, evicts only dead lines and misses once per distinct line.
func (bs *batchSide) placeBlock(side *compiledSide, seeds *[BatchK]uint64) uint32 {
	nl := len(side.lines)
	nsets := side.sets * BatchK
	if cap(bs.set) < nl*BatchK {
		bs.set = make([]int32, nl*BatchK)
	}
	bs.set = bs.set[:nl*BatchK]
	if cap(bs.tally) < nsets {
		bs.tally = make([]setTally, nsets)
		bs.content = make([]int32, nsets*side.ways)
	}
	bs.tally = bs.tally[:nsets]
	bs.content = bs.content[:nsets*side.ways]
	clear(bs.tally)

	random := bs.cfg.Placement == cache.RandomPlacement
	if random {
		for k := 0; k < BatchK; k++ {
			bs.keys[k] = cache.PlacementKey(seeds[k])
		}
	}

	mask := uint64(side.sets - 1)
	sets := int32(side.sets)
	ways := int32(min(side.ways, math.MaxInt32))
	keys := &bs.keys
	for id, line := range side.lines {
		row := (*[BatchK]int32)(bs.set[id*BatchK:])
		if random {
			for k := range row {
				row[k] = int32(k)*sets + int32(rng.Mix64(line^keys[k])&mask)
			}
		} else {
			for k := range row {
				row[k] = int32(k)*sets + int32(line&mask)
			}
		}
	}
	// The tally takes a pass of its own, which keeps its state out of the
	// hash loop's registers.
	var conflict uint32
	tally := bs.tally
	for id, sp := range side.span {
		row := (*[BatchK]int32)(bs.set[id*BatchK:])
		for k, o := range row {
			t := &tally[o]
			if t.lines >= ways && t.live > sp.first {
				conflict |= 1 << k
			}
			t.lines++
			t.live = max(t.live, sp.last)
		}
	}
	return conflict
}

// overflows reports whether set o (k*sets + set) of the block holds more
// lines than it has ways, as counted by the last placeBlock. A replayed
// seed replays every overflowing set, including those where it evicts only
// dead lines.
func (bs *batchSide) overflows(side *compiledSide, o int32) bool {
	return int(bs.tally[o].lines) > side.ways
}

// replayOverflow replays seed k of the block under random replacement, its
// replacement stream already in bs.rand, and returns the seed's miss count
// on this cache. A line whose set holds at most Ways lines misses once and
// never evicts; the lines of the overflowing sets go through the
// misses-only replay, in line-ID order, which is their order of first
// access.
func (bs *batchSide) replayOverflow(side *compiledSide, k int) uint64 {
	ev := &bs.ev
	ev.ln = ev.ln[:0]
	for id := range side.lines {
		o := bs.set[id*BatchK+k]
		if !bs.overflows(side, o) {
			continue
		}
		base := o * int32(side.ways)
		clear(bs.content[base : base+int32(side.ways)])
		ev.add(side.off, int32(id), base)
	}
	cold := len(side.lines) - len(ev.ln)
	return uint64(cold + ev.run(side.post, bs.content, side.ways, &bs.rand))
}

// addLineMisses adds the per-line misses of seed k, which replayOverflow
// has just replayed, to lines: one for each line outside an overflowing
// set, and the replay's count for each line inside one.
func (bs *batchSide) addLineMisses(side *compiledSide, k int, lines []uint64) {
	for id := range lines {
		if !bs.overflows(side, bs.set[id*BatchK+k]) {
			lines[id]++
		}
	}
	for _, l := range bs.ev.ln {
		lines[l.id] += uint64(l.misses)
	}
}

// replayLRU walks the cache's ID sequence for the replayed seeds in
// conflict with full cache.AccessLine semantics under LRU replacement: the
// hit scan, a fill of the first empty way, and the least recently used
// victim. The tick is the access's position in the cache's sequence, which
// is the same for every seed. It adds each seed's misses to misses[k] and,
// when lines is not nil, each line's misses to lines[id].
func (bs *batchSide) replayLRU(side *compiledSide, conflict uint32, misses *[BatchK]uint64, lines []uint64) {
	// lruTick needs no reset: victims are only ever chosen among ways
	// filled this run, whose ticks were all written this run (the reference
	// cache relies on the same property across its Flush).
	if cap(bs.lruTick) < len(bs.content) {
		bs.lruTick = make([]uint64, len(bs.content))
	}
	ways := int32(side.ways)
	block := side.sets * side.ways
	for m := conflict; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		clear(bs.content[k*block : (k+1)*block])
	}

	c, ticks := bs.content, bs.lruTick
	for pos, id := range side.ids {
		tick := uint64(pos)
		row := int(id) * BatchK
		tag := id + 1
	seeds:
		for m := conflict; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			base := bs.set[row+k] * ways
			for w := int32(0); w < ways; w++ {
				if c[base+w] == tag {
					ticks[base+w] = tick
					continue seeds
				}
			}
			misses[k]++
			if lines != nil {
				lines[id]++
			}
			victim := int32(0)
			for victim < ways && c[base+victim] != 0 {
				victim++
			}
			if victim == ways {
				victim = 0
				for w := int32(1); w < ways; w++ {
					if ticks[base+w] < ticks[base+victim] {
						victim = w
					}
				}
			}
			c[base+victim] = tag
			ticks[base+victim] = tick
		}
	}
}

// MissReplay is the misses-only replay of random replacement over a list
// of lines whose sets start empty, added in order of first access. A hit
// changes no state, so the next miss is the earliest next access of a line
// out of its set. A line is out before its first access, which always
// misses, and after an eviction. Cold lines come from a cursor in order of
// first access; only evicted lines that come back wait in a min-heap keyed
// by their next access, so each miss is the earlier of the cursor's next
// line and the heap's top. A miss fills its line's set, or, when the set is
// full, evicts the victim its draw picks. An evicted line whose last access
// lies before the miss leaves for good; any other re-enters at its first
// access after the miss. That access is found by galloping along its
// posting list from the posting after its last miss (cur+1, where most
// returning lines re-enter), doubling the step, and bisecting only within
// the last step. When that access comes before both the cursor and the
// heap's top it is the next miss, taken without a heap operation. Misses
// and draws fall at the same positions, in the same order, as in a walk of
// every access. The campaign replay hands it a seed's lines in overflowing
// sets; PinnedMisses hands it a TAC conflict group forced into one set.
type MissReplay struct {
	ln    []lineRun // the replayed lines, in order of first access
	heap  []uint64  // evicted lines that come back: next access << 32 | index in ln
	slots []int32   // the one set of PinnedMisses
}

// lineRun is one replayed line, its fields kept together so that a miss
// reads one cache line per line it touches.
type lineRun struct {
	id, first, end int32 // the line's ID and its postings post[first:end]
	base           int32 // first way of the line's set in the slots
	cur            int32 // during a run: index in post of its last miss
	misses         uint32
}

// add appends line id, whose set's ways start at base in the slots, to the
// replayed lines; off holds the cache's posting offsets.
func (r *MissReplay) add(off []int32, id, base int32) {
	r.ln = append(r.ln, lineRun{id: id, first: off[id], end: off[id+1], base: base})
}

// run replays the added lines against slots, whose sets (ways ways from
// each line's base) the caller has emptied, drawing victims from gen; post
// holds the cache's posting lists. A way holds its line's index in r.ln
// plus one, or 0 while empty. run leaves each line's miss count in r.ln and
// returns their sum.
func (r *MissReplay) run(post, slots []int32, ways int, gen *rng.Xoshiro256) int {
	ln := r.ln
	if cap(r.heap) < len(ln) {
		r.heap = make([]uint64, 0, len(ln)) // a line is in the heap at most once
	}
	h := r.heap[:0]
	// The cursor: ln[next] is the first line not yet accessed, and cold its
	// key (first access << 32 | next), or the maximum once every line is in.
	next, cold := 0, uint64(math.MaxUint64)
	if len(ln) > 0 {
		cold = uint64(post[ln[0].first]) << 32
	}
	total := 0
	for {
		key, fromHeap := cold, len(h) > 0 && h[0] < cold
		if fromHeap {
			key = h[0]
		} else if next == len(ln) {
			break
		} else {
			l := &ln[next]
			l.cur, l.misses = l.first, 0
			if next++; next < len(ln) {
				cold = uint64(post[ln[next].first])<<32 | uint64(next)
			} else {
				cold = math.MaxUint64
			}
		}
		pos, i := int32(key>>32), int32(uint32(key))
		l := &ln[i]
		l.misses++
		total++
		base := int(l.base)
		if slots[base+ways-1] == 0 {
			// Ways fill in order, so the set has room: fill its first
			// empty way, without a draw.
			for slots[base] != 0 {
				base++
			}
			slots[base] = i + 1
			if fromHeap {
				h = popRoot(h)
			}
			continue
		}
		for {
			v := base + gen.Intn(ways)
			out := slots[v] - 1
			slots[v] = i + 1
			o := &ln[out]
			if post[o.end-1] < pos {
				// Never accessed again: the evicted line leaves for good.
				if fromHeap {
					h = popRoot(h)
				}
				break
			}
			// The evicted line re-enters at its first access after pos,
			// which its last posting bounds. Gallop from cur+1: while the
			// probe lies before pos, step past it, doubling the step, then
			// bisect within the last step.
			lo, hi := o.cur+1, o.end-1
			if post[lo] <= pos {
				step := int32(1)
				for lo+step < hi && post[lo+step] <= pos {
					lo += step
					step <<= 1
				}
				lo, hi = lo+1, min(lo+step, hi)
				for lo < hi {
					if mid := int32(uint32(lo+hi) >> 1); post[mid] <= pos {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
			}
			o.cur = lo
			back := uint64(post[lo])<<32 | uint64(out)
			if fromHeap {
				h[0] = back
				siftDown(h, 0)
				break
			}
			if back > cold || len(h) > 0 && back > h[0] {
				h = append(h, back)
				siftUp(h, len(h)-1)
				break
			}
			// The evicted line's next access is the next miss, and it
			// evicts from the same full set.
			pos, i = post[lo], out
			o.misses++
			total++
		}
	}
	return total
}

// PinnedMisses returns the miss count of the accesses of lines ids, summed
// over one replay per generator in gens, as if all of the lines were mapped
// into one set of ways ways under random replacement: package tac's
// forced-placement event "these lines co-map". Each replay draws its
// victims from a copy of its generator. off and post are the posting lists
// of the lines' cache (CompiledTrace.SidePostings). Accesses to other lines
// never touch that set, so only the misses of the group are visited.
func (r *MissReplay) PinnedMisses(off, post, ids []int32, ways int, gens []rng.Xoshiro256) int {
	r.ln = r.ln[:0]
	for _, id := range ids {
		r.add(off, id, 0)
		// The replay takes lines in order of first access: insert this
		// one among the few before it.
		for j := len(r.ln) - 1; j > 0 && post[r.ln[j].first] < post[r.ln[j-1].first]; j-- {
			r.ln[j], r.ln[j-1] = r.ln[j-1], r.ln[j]
		}
	}
	if cap(r.slots) < ways {
		r.slots = make([]int32, ways)
	}
	slots, total := r.slots[:ways], 0
	for _, g := range gens {
		clear(slots)
		total += r.run(post, slots, ways, &g)
	}
	return total
}

// popRoot removes the root of the min-heap h and returns the shorter heap.
func popRoot(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0)
	return h
}

// siftUp restores the min-heap order of h above position i.
func siftUp(h []uint64, i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= x {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// siftDown restores the min-heap order of h below position i, if any.
func siftDown(h []uint64, i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if x <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
