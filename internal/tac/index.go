package tac

import (
	"sort"

	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file builds the per-cache posting-list index behind the default
// group enumeration (enum.go). The reference enumeration pays a full scan
// of the side's line sequence for every candidate group; the index is built
// once per side and gives three things:
//
//   - postings: per hot line, the ascending positions of its accesses. A
//     group's subsequence is a k-way merge of its lines' postings — O(|sub|)
//     per group instead of O(|seq|).
//   - pairwise interleaving counts: itl[a][b] counts the accesses of b whose
//     reuse gap (since the previous access of b) contains at least one
//     access of a. They feed the reuse-distance prefilter's per-group upper
//     bound on forced-placement misses (see groupBound in enum.go).
//   - dense baseline misses: the per-line baseline of the reference arm
//     (baselineLineMisses) — the same BaselineSeeds layouts, replayed by
//     proc's per-cache replay (Engine.LineMisses) and read back per line ID
//     instead of through a map. Values are bit-identical to the map arm.
type sideIndex struct {
	hot  []uint64 // hot line addresses (count-desc, addr-asc), as hotLines returns
	occ  []int32  // per hot index: total accesses of the line
	off  []int32  // posting offsets: hot line h occupies post[off[h]:off[h+1]]
	post []int32  // concatenated postings (positions in the side's line sequence)

	// itl[a*H+b] counts the non-first accesses of hot line b whose reuse gap
	// contains >= 1 access of hot line a (a != b). An access of b can only
	// miss in a forced-placement replay of a group G when some other line of
	// G was accessed — and itself missed — inside that gap, so summing the
	// column over a in G upper-bounds b's non-cold misses (union bound).
	itl []int32

	// base[h] is the baseline mean miss count of hot line h over
	// BaselineSeeds unconstrained random layouts — the same value the
	// reference arm reads from its map.
	base []float64
}

// buildSideIndex indexes the line sequence of the cache serving accesses of
// kind k. The sequence arrives pre-projected as proc.Compile's dense
// first-appearance line IDs (CompiledTrace.SideIDs/SideLines), so the map
// work is paid once per trace, and the baseline misses come from eng, an
// engine holding ct, replaying the reference arm's layouts.
func buildSideIndex(ct *proc.CompiledTrace, eng *proc.Engine, k trace.Kind, cfg Config) *sideIndex {
	ids, lines := ct.SideIDs(k), ct.SideLines(k)
	counts := make([]int32, len(lines))
	for _, id := range ids {
		counts[id]++
	}

	hotIDs := hotLinesDense(lines, counts, cfg.HotLines)
	h := len(hotIDs)
	sx := &sideIndex{hot: make([]uint64, h)}

	// hotOf maps a dense line ID to its hot index (-1 when not hot).
	hotOf := make([]int32, len(lines))
	for i := range hotOf {
		hotOf[i] = -1
	}
	sx.occ = make([]int32, h)
	for hi, id := range hotIDs {
		sx.hot[hi] = lines[id]
		hotOf[id] = int32(hi)
		sx.occ[hi] = counts[id]
	}

	// Postings, allocated exactly from the occurrence counts.
	sx.off = make([]int32, h+1)
	for hi := range sx.occ {
		sx.off[hi+1] = sx.off[hi] + sx.occ[hi]
	}
	sx.post = make([]int32, sx.off[h])
	next := make([]int32, h)
	copy(next, sx.off[:h])

	// Pairwise interleaving in the same pass: lastPos[a] is the position of
	// a's latest access, so a appears in b's reuse gap (p, i) exactly when
	// lastPos[a] > p at the time b is accessed.
	sx.itl = make([]int32, h*h)
	lastPos := make([]int32, h)
	for i := range lastPos {
		lastPos[i] = -1
	}
	for i, id := range ids {
		b := hotOf[id]
		if b < 0 {
			continue
		}
		sx.post[next[b]] = int32(i)
		next[b]++
		if p := lastPos[b]; p >= 0 {
			for a := 0; a < h; a++ {
				if int32(a) != b && lastPos[a] > p {
					sx.itl[a*h+int(b)]++
				}
			}
		}
		lastPos[b] = int32(i)
	}

	// Zero baseline seeds leave every mean at 0, as the map arm's empty map
	// does.
	sx.base = make([]float64, h)
	if n := cfg.BaselineSeeds; n > 0 {
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = rng.Stream(cfg.Seed^0xBA5E, i)
		}
		misses := eng.LineMisses(k, seeds)
		for hi, id := range hotIDs {
			sx.base[hi] = float64(misses[id]) / float64(n)
		}
	}
	return sx
}

// hotLinesDense is hotLines on dense per-line counts: the IDs of up to n
// of the most frequently accessed lines, count-descending with ties broken
// by address, lines accessed once excluded. Selection and order are
// identical to the reference arm's map-based helper.
func hotLinesDense(lines []uint64, counts []int32, n int) []int32 {
	sel := make([]int32, 0, len(lines))
	for id := range lines {
		if counts[id] >= 2 {
			sel = append(sel, int32(id))
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		if counts[sel[i]] != counts[sel[j]] {
			return counts[sel[i]] > counts[sel[j]]
		}
		return lines[sel[i]] < lines[sel[j]]
	})
	if len(sel) > n {
		sel = sel[:n]
	}
	return sel
}
