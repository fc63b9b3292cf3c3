// Package tac implements Time-aware Address Conflict analysis (Milutinovic
// et al., Ada-Europe 2017) for time-randomized caches: given the address
// sequence of a program (path), it determines the minimum number of
// measurement runs so that random-placement cache layouts that cause abrupt
// execution-time increases are observed in the campaign with a probability
// high enough for the residual risk to be negligible (below MissProb,
// aligned with the most stringent hardware fault rates, 10^-9).
//
// The analysis follows the published model:
//
//  1. Project the trace onto cache lines, separately per cache (IL1/DL1).
//  2. Enumerate candidate conflict groups: combinations of k = W+1 (up to
//     W+MaxExtraWays+1) hot lines. A group matters when co-mapping its lines
//     into a single set overflows the associativity W and the access pattern
//     interleaves them with long reuse distances.
//  3. Estimate each group's impact (extra cycles versus the baseline run)
//     with a forced-placement simulation: the group's access subsequence is
//     replayed against a single pinned set with random replacement, exactly
//     the event "these k lines fell into the same set".
//  4. A group's probability of occurring in one run under parametric random
//     placement is (1/S)^(k-1); groups with equivalent impact form an event
//     class whose probability is the sum (Section 3.1.2 of the DAC'18 paper
//     combines the C(6,5)=6 equivalent groups into p = 6*(1/S)^4).
//  5. For every relevant class, the minimum number of runs R satisfies
//     (1 - p)^R <= MissProb; the analysis returns the maximum across
//     classes.
package tac

import (
	"fmt"
	"math"
	"sort"

	"pubtac/internal/cache"
	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// Config tunes the analysis. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// MissProb is the acceptable probability of not observing a relevant
	// event class in the whole campaign (paper: 10^-9, in line with the
	// most stringent hardware fault probabilities).
	MissProb float64

	// MinImpactRel is the relevance threshold: a group matters when its
	// impact exceeds this fraction of the baseline mean execution time. It
	// must be finite and not negative: a NaN or negative threshold would
	// count every candidate group as relevant, and +Inf none.
	MinImpactRel float64

	// ImpactTol clusters groups into event classes: a group belongs to the
	// class of impact level L when its impact is at least (1-ImpactTol)*L.
	// A negative or NaN tolerance is rejected.
	ImpactTol float64

	// HotLines bounds the per-cache candidate lines (most accessed first).
	HotLines int

	// MaxExtraWays extends group sizes beyond W+1 (0 reproduces the
	// paper's arithmetic; each extra way multiplies cost and divides the
	// event probability by S).
	MaxExtraWays int

	// ProbFloor discards event classes rarer than this per-run probability
	// (TAC's ignorance threshold: such layouts are too rare to matter at
	// the certification exceedance level and would demand campaigns of
	// tens of millions of runs). A NaN floor is rejected.
	ProbFloor float64

	// BaselineSeeds and PinSeeds set how many random layouts are averaged
	// for the baseline and the forced-placement impact estimate. Negative
	// counts are rejected.
	BaselineSeeds int
	PinSeeds      int

	// Seed roots the deterministic randomness of the analysis itself.
	Seed uint64

	// Workers bounds the parallel evaluation of the candidate groups (<= 1
	// evaluates serially). Results are deterministic and independent of the
	// worker count; package core threads each path's simulation worker
	// share through here, so Session-level TAC rides the same pool budget
	// as the campaigns.
	Workers int
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MissProb:      1e-9,
		MinImpactRel:  0.03,
		ImpactTol:     0.30,
		HotLines:      12,
		MaxExtraWays:  0,
		ProbFloor:     1e-5,
		BaselineSeeds: 8,
		PinSeeds:      4,
		Seed:          0x7AC0,
	}
}

// Group is one conflictive address combination.
type Group struct {
	Kind   trace.Kind // which cache the lines belong to
	Lines  []uint64   // line addresses, ascending
	Prob   float64    // per-run probability of co-mapping into one set
	Impact float64    // estimated extra cycles when co-mapped
}

// Class is an equivalence class of groups with comparable impact.
type Class struct {
	Impact float64 // representative (maximum) impact of the class
	Prob   float64 // summed probability of its groups
	Groups int     // number of groups merged
	Runs   int     // minimum runs to observe the class w.p. >= 1-MissProb
}

// Analysis is the outcome of TAC on one address sequence.
type Analysis struct {
	Groups       []Group // relevant groups, impact-descending
	Classes      []Class // event classes, impact-descending
	MinRuns      int     // max Runs across classes (0: no relevant class)
	BaselineMean float64 // baseline mean execution time (cycles)
}

// MinRunsFor returns the minimum R with (1-p)^R <= missProb.
func MinRunsFor(p, missProb float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	r := math.Log(missProb) / math.Log(1-p)
	return int(math.Ceil(r))
}

// Analyze runs TAC on tr for the given platform model, compiling the trace
// for its baseline campaign itself. Callers that already hold the trace's
// compiled form (package core shares one compilation per analyzed path
// across TAC and the measurement campaigns) use AnalyzeCompiled.
func Analyze(tr trace.Trace, model proc.Model, cfg Config) (*Analysis, error) {
	return AnalyzeCompiled(tr, nil, model, cfg)
}

// AnalyzeCompiled is Analyze reusing ct, a shared compilation of tr for the
// model (nil compiles one here). One engine replays the compilation for
// both baselines: the baseline mean is a campaign — BaselineSeeds runs
// rooted at cfg.Seed — and the default enumeration's per-line baseline is
// the same engine's per-cache replay (proc.Engine.LineMisses). That
// enumeration also reads the compilation's per-side dense line IDs and
// posting lists for its index; the group impact replays visit only a
// group's misses, never the full trace.
func AnalyzeCompiled(tr trace.Trace, ct *proc.CompiledTrace, model proc.Model, cfg Config) (*Analysis, error) {
	return analyzeCompiled(tr, ct, model, cfg, false)
}

// analyzeCompiled is AnalyzeCompiled with a test seam. By default each
// cache's groups come from the indexed enumeration, in three layers: the
// index on the compilation (index.go), the misses-only pinned replay of
// every candidate group (proc.MissReplay.PinnedMisses) and the parallel
// evaluation of the groups (enum.go). reference swaps in the original
// enumeration, which scans the full line sequence once per candidate. Both
// arms replay every candidate with the same draws, so the Analysis is
// bit-identical either way; only the equivalence tests set reference.
func analyzeCompiled(tr trace.Trace, ct *proc.CompiledTrace, model proc.Model, cfg Config,
	reference bool) (*Analysis, error) {
	if cfg.MissProb <= 0 || cfg.MissProb >= 1 {
		return nil, fmt.Errorf("tac: MissProb %v out of (0,1)", cfg.MissProb)
	}
	if cfg.HotLines < 2 {
		return nil, fmt.Errorf("tac: HotLines %d too small", cfg.HotLines)
	}
	if cfg.BaselineSeeds < 0 || cfg.PinSeeds < 0 {
		return nil, fmt.Errorf("tac: negative seed count (BaselineSeeds %d, PinSeeds %d)",
			cfg.BaselineSeeds, cfg.PinSeeds)
	}
	// classify would drop every class under either: with a negative or NaN
	// tolerance no group reaches its own class's cutoff, and no probability
	// reaches a NaN floor.
	if !(cfg.ImpactTol >= 0) {
		return nil, fmt.Errorf("tac: ImpactTol %v is negative or NaN", cfg.ImpactTol)
	}
	// The relevance test is impact < MinImpactRel·baseline: a NaN or
	// negative threshold never holds it (or holds it only below zero), so
	// every group counts as relevant, and +Inf holds it for every group.
	if !(cfg.MinImpactRel >= 0) || math.IsInf(cfg.MinImpactRel, 1) {
		return nil, fmt.Errorf("tac: MinImpactRel %v is negative, NaN or infinite", cfg.MinImpactRel)
	}
	if math.IsNaN(cfg.ProbFloor) {
		return nil, fmt.Errorf("tac: ProbFloor is NaN")
	}
	a := &Analysis{}

	// Baseline mean execution time over a handful of random layouts: a
	// BaselineSeeds-run campaign rooted at cfg.Seed, summed in run order.
	// The compilation is built here when the caller doesn't share one: the
	// baseline campaign replays it, and the indexed enumeration reuses its
	// per-side dense line-ID projection instead of re-projecting the trace,
	// and this engine for its per-line baseline.
	eng := proc.NewEngine(model)
	if ct == nil {
		ct = proc.Compile(tr, model)
	}
	eng.SetCompiled(ct, tr)
	var sum float64
	for _, t := range eng.Campaign(tr, cfg.BaselineSeeds, cfg.Seed) {
		sum += t
	}
	a.BaselineMean = sum / float64(cfg.BaselineSeeds)
	missCost := float64(model.Lat.Miss - model.Lat.Hit)

	for _, side := range []struct {
		kind trace.Kind
		cfgC cache.Config
	}{{trace.Instr, model.IL1}, {trace.Data, model.DL1}} {
		var groups []Group
		if reference {
			seq := lineSeq(tr, side.kind, side.cfgC.LineBytes)
			if len(seq) == 0 {
				continue
			}
			groups = analyzeCacheReference(seq, side.kind, side.cfgC, cfg, missCost, a.BaselineMean)
		} else {
			if len(ct.SideLines(side.kind)) == 0 {
				continue
			}
			groups = analyzeCacheIndexed(ct, eng, side.kind, side.cfgC, cfg, missCost, a.BaselineMean)
		}
		a.Groups = append(a.Groups, groups...)
	}

	sort.Slice(a.Groups, func(i, j int) bool { return a.Groups[i].Impact > a.Groups[j].Impact })
	a.Classes = classify(a.Groups, cfg)
	for _, c := range a.Classes {
		if c.Runs > a.MinRuns {
			a.MinRuns = c.Runs
		}
	}
	return a, nil
}

// lineSeq projects tr onto the line addresses of one cache, sized exactly
// by a counting pre-pass (no append regrowth).
func lineSeq(tr trace.Trace, k trace.Kind, lineBytes int) []uint64 {
	n := 0
	for i := range tr {
		if tr[i].Kind == k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	seq := make([]uint64, 0, n)
	for _, acc := range tr {
		if acc.Kind == k {
			seq = append(seq, acc.Addr/uint64(lineBytes))
		}
	}
	return seq
}

// analyzeCacheReference lists and evaluates the conflict groups of one
// cache by scanning the full line sequence once per candidate — the
// original TAC arm, kept behind analyzeCompiled's reference seam as the
// equivalence oracle for the indexed enumeration (enum.go).
//
//pubtac:reference tac-enum
func analyzeCacheReference(seq []uint64, kind trace.Kind, cfgC cache.Config, cfg Config,
	missCost, baselineMean float64) []Group {

	counts := make(map[uint64]int)
	for _, l := range seq {
		counts[l]++
	}
	hot := hotLines(counts, cfg.HotLines)
	w := cfgC.Ways
	var out []Group
	maxK := w + 1 + cfg.MaxExtraWays
	if maxK > len(hot) {
		maxK = len(hot)
	}
	base := baselineLineMisses(seq, cfgC, cfg)
	var sub []uint64 // scratch for each group's filtered subsequence
	for k := w + 1; k <= maxK; k++ {
		combinations(len(hot), k, func(idx []int) {
			lines := make([]uint64, k)
			for i, hi := range idx {
				lines[i] = hot[hi]
			}
			extraMisses := pinnedImpact(seq, lines, cfgC, cfg, &sub) - baselineMissesOf(base, lines)
			impact := extraMisses * missCost
			if impact < cfg.MinImpactRel*baselineMean {
				return
			}
			out = append(out, Group{
				Kind:   kind,
				Lines:  lines,
				Prob:   math.Pow(1/float64(cfgC.Sets), float64(k-1)),
				Impact: impact,
			})
		})
	}
	return out
}

// hotLines returns up to n of the most frequently accessed lines (ties
// broken by address for determinism), excluding lines accessed once (a
// single access misses anyway; no layout changes that).
func hotLines(counts map[uint64]int, n int) []uint64 {
	lines := make([]uint64, 0, len(counts))
	//pubtac:nondeterministic collection order is erased by the total sort below
	for l, c := range counts {
		if c >= 2 {
			lines = append(lines, l)
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if counts[lines[i]] != counts[lines[j]] {
			return counts[lines[i]] > counts[lines[j]]
		}
		return lines[i] < lines[j]
	})
	if len(lines) > n {
		lines = lines[:n]
	}
	return lines
}

// combinations invokes f with every size-k index combination of [0,n).
func combinations(n, k int, f func(idx []int)) {
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		f(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// baselineLineMisses estimates, per line, the mean number of misses in an
// unconstrained random-layout run, averaged over BaselineSeeds layouts.
// One cache instance is reseeded per layout (Reseed reproduces the state
// New would build, without the allocations).
func baselineLineMisses(seq []uint64, cfgC cache.Config, cfg Config) map[uint64]float64 {
	sums := make(map[uint64]float64)
	c := cache.New(cfgC, rng.Stream(cfg.Seed^0xBA5E, 0))
	for s := 0; s < cfg.BaselineSeeds; s++ {
		if s > 0 {
			c.Reseed(rng.Stream(cfg.Seed^0xBA5E, s))
		}
		for _, l := range seq {
			if !c.AccessLine(l) {
				sums[l]++
			}
		}
	}
	//pubtac:nondeterministic per-key in-place scaling; no cross-key dependence
	for l := range sums {
		sums[l] /= float64(cfg.BaselineSeeds)
	}
	return sums
}

func baselineMissesOf(base map[uint64]float64, lines []uint64) float64 {
	var sum float64
	for _, l := range lines {
		sum += base[l]
	}
	return sum
}

// pinnedImpact replays the subsequence of accesses to the group's lines
// against a single pinned set of Ways ways with random replacement — the
// exact behaviour of the event "all group lines mapped into one set" —
// and returns the mean miss count over PinSeeds replacement streams.
//
// The group's subsequence is extracted once into *scratch and replayed per
// replacement stream: the full sequence is scanned once per group instead
// of once per group per seed, with replacement draws (and so results)
// unchanged. Group sizes are a handful of lines, so membership is a linear
// scan rather than a map.
func pinnedImpact(seq []uint64, lines []uint64, cfgC cache.Config, cfg Config, scratch *[]uint64) float64 {
	sub := (*scratch)[:0]
	for _, l := range seq {
		for _, g := range lines {
			if g == l {
				sub = append(sub, l)
				break
			}
		}
	}
	*scratch = sub

	var gen rng.Xoshiro256
	set := make([]uint64, 0, cfgC.Ways)
	var total float64
	for s := 0; s < cfg.PinSeeds; s++ {
		gen.Reseed(rng.Stream(cfg.Seed^0x51AC, s))
		set = set[:0]
		misses := 0
		for _, l := range sub {
			hit := false
			for _, r := range set {
				if r == l {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			misses++
			if len(set) < cfgC.Ways {
				set = append(set, l)
			} else {
				set[gen.Intn(cfgC.Ways)] = l
			}
		}
		total += float64(misses)
	}
	return total / float64(cfg.PinSeeds)
}

// classify merges impact-sorted groups into event classes and computes the
// per-class minimum runs. For each class the probability is the total
// probability of observing any layout with comparable-or-higher impact.
func classify(groups []Group, cfg Config) []Class {
	var classes []Class
	i := 0
	for i < len(groups) {
		level := groups[i].Impact
		cutoff := level * (1 - cfg.ImpactTol)
		var p float64
		n := 0
		j := i
		for j < len(groups) && groups[j].Impact >= cutoff {
			p += groups[j].Prob
			n++
			j++
		}
		if j == i {
			// A NaN impact (degenerate zero-seed configs) matches not even
			// its own cutoff; skip the group rather than stall.
			j = i + 1
		}
		if p >= cfg.ProbFloor {
			classes = append(classes, Class{
				Impact: level,
				Prob:   p,
				Groups: n,
				Runs:   MinRunsFor(p, cfg.MissProb),
			})
		}
		i = j
	}
	return classes
}
