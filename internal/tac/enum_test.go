package tac

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/proc"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// policyModels enumerates all four placement x replacement combinations at
// the given geometry, on both caches.
func policyModels(sets, ways int) []struct {
	name  string
	model proc.Model
} {
	var out []struct {
		name  string
		model proc.Model
	}
	for _, p := range []struct {
		name string
		p    cache.PlacementPolicy
	}{{"random", cache.RandomPlacement}, {"modulo", cache.ModuloPlacement}} {
		for _, r := range []struct {
			name string
			r    cache.ReplacementPolicy
		}{{"random", cache.RandomReplacement}, {"lru", cache.LRUReplacement}} {
			c := cache.Config{Sets: sets, Ways: ways, LineBytes: 32, Placement: p.p, Replacement: r.r}
			out = append(out, struct {
				name  string
				model proc.Model
			}{p.name + "-" + r.name, proc.Model{IL1: c, DL1: c, Lat: proc.DefaultLatency()}})
		}
	}
	return out
}

// adversarialTraces builds the enumeration's worst cases: fully
// interleaved accesses (every reuse gap crowded, nothing prunable),
// never-interleaved phase blocks (everything prunable), tie-heavy hot
// counts (hot-line ordering decided by the address tie-break alone), a
// mixed instruction+data trace, and a seeded random trace.
func adversarialTraces() []struct {
	name string
	tr   trace.Trace
} {
	interleaved := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 200)

	var blocks trace.Trace
	for l := uint64(0); l < 8; l++ {
		for i := 0; i < 50; i++ {
			blocks = append(blocks, trace.Access{Addr: l * 32, Kind: trace.Data})
		}
	}

	// Every line accessed exactly 3 times, interleaved: counts all tie.
	ties := trace.Repeat(trace.FromLetters("HGFEDCBA", 32), 3)

	var mixed trace.Trace
	for rep := 0; rep < 120; rep++ {
		for l := uint64(0); l < 6; l++ {
			mixed = append(mixed, trace.Access{Addr: l * 32, Kind: trace.Instr})
			if l%2 == 0 {
				mixed = append(mixed, trace.Access{Addr: (l + 16) * 32, Kind: trace.Data})
			}
		}
	}

	gen := rng.New(0xADE5)
	var random trace.Trace
	for i := 0; i < 1500; i++ {
		kind := trace.Instr
		if gen.Intn(2) == 1 {
			kind = trace.Data
		}
		random = append(random, trace.Access{Addr: uint64(gen.Intn(12)) * 32, Kind: kind})
	}

	return []struct {
		name string
		tr   trace.Trace
	}{
		{"interleaved", interleaved},
		{"never-interleaved", blocks},
		{"tie-heavy", ties},
		{"mixed-kinds", mixed},
		{"random", random},
	}
}

// denseIDs projects a line sequence onto first-appearance dense IDs, the
// shape CompiledTrace.SideIDs/SideLines hand to the indexed enumeration.
func denseIDs(seq []uint64) ([]int32, []uint64) {
	ids := make([]int32, len(seq))
	idOf := map[uint64]int32{}
	var lines []uint64
	for i, l := range seq {
		id, ok := idOf[l]
		if !ok {
			id = int32(len(lines))
			idOf[l] = id
			lines = append(lines, l)
		}
		ids[i] = id
	}
	return ids, lines
}

// sameAnalysis asserts bit-identity of every Analysis field the package
// documents: group order, lines, probabilities and impacts, classes, the
// run requirement and the baseline mean.
func sameAnalysis(t *testing.T, want, got *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(want.Groups, got.Groups) {
		t.Fatalf("groups diverge:\nreference: %+v\nindexed:   %+v", want.Groups, got.Groups)
	}
	if !reflect.DeepEqual(want.Classes, got.Classes) {
		t.Fatalf("classes diverge:\nreference: %+v\nindexed:   %+v", want.Classes, got.Classes)
	}
	if want.MinRuns != got.MinRuns {
		t.Fatalf("MinRuns: reference %d, indexed %d", want.MinRuns, got.MinRuns)
	}
	if want.BaselineMean != got.BaselineMean {
		t.Fatalf("BaselineMean: reference %v, indexed %v", want.BaselineMean, got.BaselineMean)
	}
}

// analyzeReference runs TAC through analyzeCompiled's reference seam: the
// full-sequence-scan enumeration (analyzeCacheReference) on every cache.
func analyzeReference(tr trace.Trace, model proc.Model, cfg Config) (*Analysis, error) {
	return analyzeCompiled(tr, nil, model, cfg, true)
}

// TestIndexedMatchesReference is the bit-identity oracle of the
// enumeration: the posting-list + prefilter arm (analyzeCacheIndexed) must
// reproduce the reference arm (analyzeCacheReference, behind
// analyzeCompiled's reference seam) exactly
// across all four policy combinations, both MaxExtraWays settings, several
// HotLines budgets and the adversarial traces.
func TestIndexedMatchesReference(t *testing.T) {
	for _, geom := range []struct{ sets, ways int }{{8, 4}, {64, 2}} {
		for _, pm := range policyModels(geom.sets, geom.ways) {
			for _, tc := range adversarialTraces() {
				for _, extra := range []int{0, 1} {
					for _, hot := range []int{4, 12, 24} {
						name := fmt.Sprintf("%dx%d/%s/%s/extra%d/hot%d",
							geom.sets, geom.ways, pm.name, tc.name, extra, hot)
						t.Run(name, func(t *testing.T) {
							cfg := DefaultConfig()
							cfg.MaxExtraWays = extra
							cfg.HotLines = hot
							want, err := analyzeReference(tc.tr, pm.model, cfg)
							if err != nil {
								t.Fatal(err)
							}
							got, err := Analyze(tc.tr, pm.model, cfg)
							if err != nil {
								t.Fatal(err)
							}
							sameAnalysis(t, want, got)
						})
					}
				}
			}
		}
	}
}

// TestIndexedMatchesReferenceLooseThreshold drops the relevance threshold
// and the class probability floor so every enumerated group must survive
// into Groups/Classes — exercising impact and probability bit-identity on
// groups the default config would discard.
func TestIndexedMatchesReferenceLooseThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinImpactRel = 0
	cfg.ProbFloor = 0
	cfg.MaxExtraWays = 1
	for _, tc := range adversarialTraces() {
		for _, pm := range policyModels(8, 2) {
			want, err := analyzeReference(tc.tr, pm.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(tc.tr, pm.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameAnalysis(t, want, got)
			if len(got.Groups) == 0 {
				t.Fatalf("%s/%s: loose threshold produced no groups", tc.name, pm.name)
			}
		}
	}
}

// TestIndexedMatchesReferenceDegenerateSeeds pins the arms together on
// degenerate seed configurations: BaselineSeeds = 0 makes the baseline
// mean — and with it the relevance threshold — NaN, which the reference
// arm's "impact < NaN" keeps, so the prefilter must disarm rather than
// prune against it (and a zero-seed pinned replay's NaN impacts likewise
// may not be pre-pruned).
func TestIndexedMatchesReferenceDegenerateSeeds(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 200)
	for _, mut := range []func(*Config){
		func(c *Config) { c.BaselineSeeds = 0 },
		func(c *Config) { c.PinSeeds = 0 },
		func(c *Config) { c.BaselineSeeds = 0; c.PinSeeds = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		want, err := analyzeReference(tr, proc.DefaultModel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Analyze(tr, proc.DefaultModel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Groups) != len(got.Groups) || want.MinRuns != got.MinRuns {
			t.Fatalf("BaselineSeeds=%d PinSeeds=%d: reference %d groups/MinRuns %d, indexed %d/%d",
				cfg.BaselineSeeds, cfg.PinSeeds,
				len(want.Groups), want.MinRuns, len(got.Groups), got.MinRuns)
		}
	}
}

// TestParallelMatchesSerial pins the parallel fan-out's determinism: any
// worker count must produce the serial arm's Analysis bit-identically
// (ordered collection), including under -race.
func TestParallelMatchesSerial(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJKL", 32), 150)
	model := proc.DefaultModel()
	cfg := DefaultConfig()
	cfg.HotLines = 12
	cfg.MaxExtraWays = 1
	cfg.MinImpactRel = 0 // keep every group so the fan-out has real work
	serial := cfg
	serial.Workers = 1
	want, err := Analyze(tr, model, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) < minParallelGroups {
		t.Fatalf("test trace yields %d groups, below the parallel threshold %d",
			len(want.Groups), minParallelGroups)
	}
	for _, workers := range []int{2, 4, 9} {
		par := cfg
		par.Workers = workers
		for rep := 0; rep < 3; rep++ {
			got, err := Analyze(tr, model, par)
			if err != nil {
				t.Fatal(err)
			}
			sameAnalysis(t, want, got)
		}
	}
}

// TestPrefilterPrunesNeverInterleaved checks the reuse-distance prefilter
// actually prunes: on a phase-block trace no reuse gap contains another
// hot line, so every candidate's miss bound collapses to the cold misses
// and the enumeration must discard all of them without a single replay.
func TestPrefilterPrunesNeverInterleaved(t *testing.T) {
	var blocks []uint64
	for l := uint64(0); l < 8; l++ {
		for i := 0; i < 50; i++ {
			blocks = append(blocks, l)
		}
	}
	cfg := DefaultConfig()
	cfgC := cache.Config{Sets: 8, Ways: 2, LineBytes: 32,
		Placement: cache.RandomPlacement, Replacement: cache.RandomReplacement}
	ids, lines := denseIDs(blocks)
	sx := buildSideIndex(ids, lines, cfgC, cfg)
	for i, v := range sx.itl {
		if v != 0 {
			t.Fatalf("itl[%d] = %d, want 0 on a never-interleaved trace", i, v)
		}
	}
	// With a realistic threshold the survivors list must be empty.
	missCost := 24.0
	baselineMean := 1000.0
	cands, bounds, _ := sx.enumerate(3, missCost, cfg.MinImpactRel*baselineMean, true, nil, nil, nil)
	if len(cands) != 0 || len(bounds) != 0 {
		t.Fatalf("prefilter kept %d candidates on a never-interleaved trace", len(bounds))
	}
}

// TestSideIndexPostings verifies postings, occurrence counts and the
// pairwise interleaving table on a hand-computed sequence.
func TestSideIndexPostings(t *testing.T) {
	// Positions:   0 1 2 3 4 5 6
	// Sequence:    A B A A C B A
	seq := []uint64{10, 20, 10, 10, 30, 20, 10}
	cfg := DefaultConfig()
	cfgC := cache.DefaultL1()
	ids, lines := denseIDs(seq)
	sx := buildSideIndex(ids, lines, cfgC, cfg)
	// Hot: A (4 accesses), B (2); C is accessed once and excluded.
	if len(sx.hot) != 2 || sx.hot[0] != 10 || sx.hot[1] != 20 {
		t.Fatalf("hot = %v", sx.hot)
	}
	if sx.occ[0] != 4 || sx.occ[1] != 2 {
		t.Fatalf("occ = %v", sx.occ)
	}
	wantPost := []int32{0, 2, 3, 6, 1, 5}
	if !reflect.DeepEqual(sx.post, wantPost) {
		t.Fatalf("post = %v, want %v", sx.post, wantPost)
	}
	// A's gaps: (0,2) contains B@1; (2,3) empty; (3,6) contains B@5.
	// B's gap: (1,5) contains A@2,3 (counted once).
	h := len(sx.hot)
	if got := sx.itl[1*h+0]; got != 2 { // B interfering with A
		t.Fatalf("itl[B][A] = %d, want 2", got)
	}
	if got := sx.itl[0*h+1]; got != 1 { // A interfering with B
		t.Fatalf("itl[A][B] = %d, want 1", got)
	}
}

// TestDenseBaselineMatchesMap pins the dense baseline replay to the
// reference map arm bit for bit, across all four policy combinations.
func TestDenseBaselineMatchesMap(t *testing.T) {
	for _, tc := range adversarialTraces() {
		for _, pm := range policyModels(8, 2) {
			cfgC := pm.model.DL1
			seq := lineSeq(tc.tr, trace.Data, cfgC.LineBytes)
			if len(seq) == 0 {
				continue
			}
			cfg := DefaultConfig()
			want := baselineLineMisses(seq, cfgC, cfg)
			ids, lines := denseIDs(seq)
			sx := buildSideIndex(ids, lines, cfgC, cfg)
			for hi, l := range sx.hot {
				if sx.base[hi] != want[l] {
					t.Fatalf("%s/%s: line %#x baseline %v, reference %v",
						tc.name, pm.name, l, sx.base[hi], want[l])
				}
			}
		}
	}
}

// TestBatchedPinnedReplayMatchesReference drives the struct-of-arrays
// pinned replay directly against the reference pinnedImpact on seeded
// random subsequences, across associativities and pin-seed counts.
func TestBatchedPinnedReplayMatchesReference(t *testing.T) {
	gen := rng.New(0x5EED)
	for _, ways := range []int{1, 2, 4} {
		for _, pinSeeds := range []int{1, 4, 7} {
			for trial := 0; trial < 20; trial++ {
				k := ways + 1 + gen.Intn(2)
				n := 50 + gen.Intn(400)
				seq := make([]uint64, n)
				for i := range seq {
					seq[i] = uint64(gen.Intn(k + 3)) // group lines plus noise lines
				}
				cfg := DefaultConfig()
				cfg.PinSeeds = pinSeeds
				cfgC := cache.Config{Sets: 8, Ways: ways, LineBytes: 32,
					Placement: cache.RandomPlacement, Replacement: cache.RandomReplacement}

				lines := make([]uint64, k)
				for i := range lines {
					lines[i] = uint64(i)
				}
				var scratch []uint64
				want := pinnedImpact(seq, lines, cfgC, cfg, &scratch)

				ids, dlines := denseIDs(seq)
				sx := buildSideIndex(ids, dlines, cfgC, cfg)
				cand := make([]uint16, 0, k)
				for _, l := range lines {
					for hi, hl := range sx.hot {
						if hl == l {
							cand = append(cand, uint16(hi))
						}
					}
				}
				if len(cand) != k {
					continue // a group line happened not to be hot; skip trial
				}
				st := newPinState(cfg, ways, k)
				got := st.eval(sx, cand, ways, cfg)
				if got != want {
					t.Fatalf("ways=%d seeds=%d trial=%d: batched %v, reference %v",
						ways, pinSeeds, trial, got, want)
				}
			}
		}
	}
}

// TestBoundDominatesImpact checks the prefilter's soundness invariant
// directly: for every candidate the bound run through the same float
// pipeline as the impact must be >= the replayed impact.
func TestBoundDominatesImpact(t *testing.T) {
	for _, tc := range adversarialTraces() {
		cfg := DefaultConfig()
		cfg.MaxExtraWays = 1
		cfgC := cache.DefaultL1()
		seq := lineSeq(tc.tr, trace.Data, cfgC.LineBytes)
		if len(seq) == 0 {
			seq = lineSeq(tc.tr, trace.Instr, cfgC.LineBytes)
		}
		ids, lines := denseIDs(seq)
		sx := buildSideIndex(ids, lines, cfgC, cfg)
		missCost := 24.0
		for k := cfgC.Ways + 1; k <= cfgC.Ways+2 && k <= len(sx.hot); k++ {
			// Disable pruning (threshold -inf) so every candidate reaches
			// the replay with its bound attached.
			cands, bounds, baseSums := sx.enumerate(k, missCost, math.Inf(-1), true, nil, nil, nil)
			st := newPinState(cfg, cfgC.Ways, k)
			for i := range bounds {
				impact := (st.eval(sx, cands[i*k:(i+1)*k], cfgC.Ways, cfg) - baseSums[i]) * missCost
				if impact > bounds[i] {
					t.Fatalf("%s k=%d cand %d: impact %v exceeds bound %v",
						tc.name, k, i, impact, bounds[i])
				}
			}
		}
	}
}

// BenchmarkAnalyzeArms contrasts the indexed enumeration against the
// reference arm on the synthetic 8-line trace (the two are bit-identical;
// see TestIndexedMatchesReference).
func BenchmarkAnalyzeArms(b *testing.B) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 500)
	m := proc.DefaultModel()
	for _, arm := range []struct {
		name      string
		reference bool
	}{{"indexed", false}, {"reference", true}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := DefaultConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := analyzeCompiled(tr, nil, m, cfg, arm.reference); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
