package tac

import (
	"sort"

	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// This file builds the per-cache index behind the default group
// enumeration (enum.go). The reference enumeration pays a full scan of the
// side's line sequence for every candidate group; the index is built once
// per side on proc's compilation and holds:
//
//   - the hot lines, in the reference arm's order, with their dense IDs in
//     the compilation;
//   - postings: per line, the ascending positions of its accesses — the
//     compilation's own posting lists (CompiledTrace.SidePostings), which
//     the pinned replay (proc.MissReplay.PinnedMisses) walks miss by miss
//     instead of scanning a group's subsequence;
//   - dense baseline misses: the per-line baseline of the reference arm
//     (baselineLineMisses) — the same BaselineSeeds layouts, replayed by
//     proc's per-cache replay (Engine.LineMisses) and read back per line ID
//     instead of through a map. Values are bit-identical to the map arm.
type sideIndex struct {
	hot  []uint64 // hot line addresses (count-desc, addr-asc), as hotLines returns
	ids  []int32  // per hot index: the line's dense ID in the compilation
	off  []int32  // the compilation's posting lists: line id's accesses
	post []int32  // sit at post[off[id]:off[id+1]]

	// base[h] is the baseline mean miss count of hot line h over
	// BaselineSeeds unconstrained random layouts — the same value the
	// reference arm reads from its map.
	base []float64
}

// buildSideIndex indexes the accesses of the cache serving kind k. They
// arrive as proc.Compile's dense first-appearance line IDs and posting
// lists (CompiledTrace.SideLines and SidePostings), so the map and posting
// work is paid once per trace, and the baseline misses come from eng, an
// engine holding ct, replaying the reference arm's layouts.
func buildSideIndex(ct *proc.CompiledTrace, eng *proc.Engine, k trace.Kind, cfg Config) *sideIndex {
	lines := ct.SideLines(k)
	off, post := ct.SidePostings(k)
	hotIDs := hotLinesDense(lines, off, cfg.HotLines)
	sx := &sideIndex{hot: make([]uint64, len(hotIDs)), ids: hotIDs, off: off, post: post}
	for hi, id := range hotIDs {
		sx.hot[hi] = lines[id]
	}

	// Zero baseline seeds leave every mean at 0, as the map arm's empty map
	// does.
	sx.base = make([]float64, len(hotIDs))
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

// hotLinesDense is hotLines on dense lines, whose access counts are the
// lengths of their posting lists (off): the IDs of up to n of the most
// frequently accessed lines, count-descending with ties broken by address,
// lines accessed once excluded. Selection and order are identical to the
// reference arm's map-based helper.
func hotLinesDense(lines []uint64, off []int32, n int) []int32 {
	count := func(id int32) int32 { return off[id+1] - off[id] }
	sel := make([]int32, 0, len(lines))
	for id := range lines {
		if count(int32(id)) >= 2 {
			sel = append(sel, int32(id))
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		if ci, cj := count(sel[i]), count(sel[j]); ci != cj {
			return ci > cj
		}
		return lines[sel[i]] < lines[sel[j]]
	})
	if len(sel) > n {
		sel = sel[:n]
	}
	return sel
}
