package tac

import (
	"fmt"
	"reflect"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/malardalen"
	"pubtac/internal/proc"
	"pubtac/internal/pub"
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
// interleaved accesses (every group thrashes), never-interleaved phase
// blocks (every group misses once per line), tie-heavy hot counts
// (hot-line ordering decided by the address tie-break alone), a mixed
// instruction+data trace, and a seeded random trace.
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

// indexSeq indexes a line sequence as a data cache the way analyzeCompiled
// indexes a trace side: compiled by proc, with the per-line baseline from
// an engine holding the compilation.
func indexSeq(seq []uint64, cfgC cache.Config, cfg Config) *sideIndex {
	tr := make(trace.Trace, len(seq))
	for i, l := range seq {
		tr[i] = trace.Access{Addr: l * uint64(cfgC.LineBytes), Kind: trace.Data}
	}
	m := proc.DefaultModel()
	m.DL1 = cfgC
	ct := proc.Compile(tr, m)
	eng := proc.NewEngine(m)
	eng.SetCompiled(ct, tr)
	return buildSideIndex(ct, eng, trace.Data, cfg)
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
// enumeration: the posting-list arm (analyzeCacheIndexed) must reproduce
// the reference arm (analyzeCacheReference, behind analyzeCompiled's
// reference seam) exactly across all four policy combinations, both
// MaxExtraWays settings, several HotLines budgets and the adversarial
// traces.
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

// TestIndexedMatchesReferenceOnPaperPaths holds the enumeration to the
// reference arm on real traffic: every benchmark's pubbed default path on
// the default platform, with and without an extra way, on one worker and
// on two.
func TestIndexedMatchesReferenceOnPaperPaths(t *testing.T) {
	model := proc.DefaultModel()
	groups := 0
	for _, bm := range malardalen.All() {
		pubbed, _, err := pub.Transform(bm.Program)
		if err != nil {
			t.Fatal(err)
		}
		tr := pubbed.MustExec(bm.Default()).Trace
		for _, extra := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/extra%d", bm.Name, extra), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MaxExtraWays = extra
				want, err := analyzeReference(tr, model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				groups += len(want.Groups)
				for _, workers := range []int{1, 2} {
					cfg.Workers = workers
					got, err := Analyze(tr, model, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameAnalysis(t, want, got)
				}
			})
		}
	}
	if groups == 0 {
		t.Fatal("no relevant group on any paper path")
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
// mean, and with it the relevance threshold, NaN, and PinSeeds = 0 makes
// every impact NaN. "impact < NaN" and "NaN < threshold" are both false,
// so both arms keep every candidate group.
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

// TestSideIndexPostings verifies the hot lines and their postings on a
// hand-computed sequence.
func TestSideIndexPostings(t *testing.T) {
	// Positions:   0 1 2 3 4 5 6
	// Sequence:    A B A A C B A
	seq := []uint64{10, 20, 10, 10, 30, 20, 10}
	cfg := DefaultConfig()
	cfgC := cache.DefaultL1()
	sx := indexSeq(seq, cfgC, cfg)
	// Hot: A (4 accesses), B (2); C is accessed once and excluded.
	if len(sx.hot) != 2 || sx.hot[0] != 10 || sx.hot[1] != 20 {
		t.Fatalf("hot = %v", sx.hot)
	}
	for hi, want := range [][]int32{{0, 2, 3, 6}, {1, 5}} {
		id := sx.ids[hi]
		if got := sx.post[sx.off[id]:sx.off[id+1]]; !reflect.DeepEqual(got, want) {
			t.Fatalf("postings of hot line %d = %v, want %v", hi, got, want)
		}
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
			sx := indexSeq(seq, cfgC, cfg)
			for hi, l := range sx.hot {
				if sx.base[hi] != want[l] {
					t.Fatalf("%s/%s: line %#x baseline %v, reference %v",
						tc.name, pm.name, l, sx.base[hi], want[l])
				}
			}
		}
	}
}

// TestBatchedPinnedReplayMatchesReference drives the pinned replay
// (pinState.eval over proc's misses-only replay) directly against the
// reference pinnedImpact on seeded random subsequences, across
// associativities and pin-seed counts.
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

				sx := indexSeq(seq, cfgC, cfg)
				cand := make([]int32, 0, k)
				for _, l := range lines {
					for hi, hl := range sx.hot {
						if hl == l {
							cand = append(cand, int32(hi))
						}
					}
				}
				if len(cand) != k {
					continue // a group line happened not to be hot; skip trial
				}
				st := newPinState(cfg)
				got := st.eval(sx, cand, ways, cfg)
				if got != want {
					t.Fatalf("ways=%d seeds=%d trial=%d: batched %v, reference %v",
						ways, pinSeeds, trial, got, want)
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
