package tac

import (
	"math"
	"testing"
	"testing/quick"

	"pubtac/internal/cache"
	"pubtac/internal/malardalen"
	"pubtac/internal/proc"
	"pubtac/internal/pub"
	"pubtac/internal/trace"
)

// paperModel is the hardware of the Section 3.1 worked examples: S=8 sets,
// W=4 ways (per cache), so a group of 5 lines in one set has probability
// (1/8)^4 = 1/4096.
func paperModel() proc.Model {
	c := cache.Config{Sets: 8, Ways: 4, LineBytes: 32,
		Placement: cache.RandomPlacement, Replacement: cache.RandomReplacement}
	return proc.Model{IL1: c, DL1: c, Lat: proc.DefaultLatency()}
}

func TestMinRunsFor(t *testing.T) {
	cases := []struct {
		p, miss float64
		want    int
	}{
		{0, 1e-9, 0},
		{1, 1e-9, 1},
		{0.5, 0.25, 2},
		{0.5, 0.5, 1},
	}
	for _, c := range cases {
		if got := MinRunsFor(c.p, c.miss); got != c.want {
			t.Errorf("MinRunsFor(%v,%v) = %d, want %d", c.p, c.miss, got, c.want)
		}
	}
}

func TestMinRunsForProperty(t *testing.T) {
	// (1-p)^R <= miss < (1-p)^(R-1)
	f := func(pRaw, mRaw uint16) bool {
		p := 1e-4 + float64(pRaw%1000)/1001.0*0.9
		miss := math.Pow(10, -1-float64(mRaw%9))
		r := MinRunsFor(p, miss)
		if r < 1 {
			return false
		}
		at := math.Pow(1-p, float64(r))
		before := math.Pow(1-p, float64(r-1))
		return at <= miss*(1+1e-9) && before >= miss*(1-1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSection311SmallWorkingSetNeedsNoRuns(t *testing.T) {
	// M1orig = {ABCA}^1000: 3 distinct addresses cannot overflow a 4-way
	// set, so TAC imposes no extra runs (paper, Section 3.1.1).
	tr := trace.Repeat(trace.FromLetters("ABCA", 32), 1000)
	a, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.MinRuns != 0 {
		t.Fatalf("MinRuns = %d, want 0 (working set fits any set)", a.MinRuns)
	}
	if len(a.Groups) != 0 {
		t.Fatalf("unexpected groups: %+v", a.Groups)
	}
}

func TestSection311PubbedSequence(t *testing.T) {
	// M1pub = {ABCDEA}^1000: 5 distinct addresses, one group of W+1=5 with
	// p = (1/8)^4 = 1/4096; R = ceil(ln(1e-9)/ln(1-1/4096)) = 84873.
	// (The paper reports R > 84875, the small delta being rounding of p.)
	tr := trace.Repeat(trace.FromLetters("ABCDEA", 32), 1000)
	a, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (%+v)", len(a.Groups), a.Groups)
	}
	g := a.Groups[0]
	if g.Kind != trace.Data || len(g.Lines) != 5 {
		t.Fatalf("group = %+v", g)
	}
	if math.Abs(g.Prob-1.0/4096) > 1e-12 {
		t.Fatalf("prob = %v, want 1/4096", g.Prob)
	}
	if a.MinRuns != 84873 {
		t.Fatalf("MinRuns = %d, want 84873 (paper: >84875 with rounded p)", a.MinRuns)
	}
}

func TestSection312SixAddresses(t *testing.T) {
	// M1pub = {ABCDEFA}^1000: 6 distinct addresses; abrupt miss counts
	// require 5 of the 6 in one set: 6 equivalent groups, class probability
	// 6*(1/8)^4 = 0.00146, R = 14137 (paper: >14138 with rounded p).
	tr := trace.Repeat(trace.FromLetters("ABCDEFA", 32), 1000)
	a, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 6 {
		t.Fatalf("groups = %d, want C(6,5)=6", len(a.Groups))
	}
	if len(a.Classes) == 0 {
		t.Fatal("no classes")
	}
	top := a.Classes[0]
	if top.Groups != 6 {
		t.Fatalf("top class groups = %d, want 6 (equivalent impacts merged)", top.Groups)
	}
	if math.Abs(top.Prob-6.0/4096) > 1e-12 {
		t.Fatalf("class prob = %v, want 6/4096", top.Prob)
	}
	if a.MinRuns != 14137 {
		t.Fatalf("MinRuns = %d, want 14137 (paper: >14138 with rounded p)", a.MinRuns)
	}
}

func TestPaperOrdering(t *testing.T) {
	// The punchline of Section 3.1: R_TAC(M_orig) and R_TAC(M_pub) have no
	// fixed order. 3.1.1: orig {ABCA} needs fewer runs than pubbed
	// {ABCDEA}; 3.1.2: orig {ABCDEA} needs more runs than pubbed
	// {ABCDEFA}.
	m := paperModel()
	cfg := DefaultConfig()
	runsOf := func(s string) int {
		a, err := Analyze(trace.Repeat(trace.FromLetters(s, 32), 1000), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a.MinRuns
	}
	if !(runsOf("ABCA") < runsOf("ABCDEA")) {
		t.Fatal("3.1.1 violated: R(orig) should be < R(pubbed)")
	}
	if !(runsOf("ABCDEA") > runsOf("ABCDEFA")) {
		t.Fatal("3.1.2 violated: R(orig) should be > R(pubbed)")
	}
}

func TestInstructionCacheGroups(t *testing.T) {
	// The same analysis applies to instruction fetches on the IL1.
	var tr trace.Trace
	for rep := 0; rep < 500; rep++ {
		for l := uint64(0); l < 5; l++ {
			tr = append(tr, trace.Access{Addr: l * 32, Kind: trace.Instr})
		}
	}
	a, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 1 || a.Groups[0].Kind != trace.Instr {
		t.Fatalf("groups = %+v", a.Groups)
	}
}

func TestDefaultPlatformGroupProbability(t *testing.T) {
	// On the paper's evaluation platform (64 sets, 2 ways), a 3-line group
	// has p = (1/64)^2 and R = 84873 as well — the same arithmetic at
	// different geometry.
	tr := trace.Repeat(trace.FromLetters("ABC", 32), 2000)
	a, err := Analyze(tr, proc.DefaultModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(a.Groups))
	}
	if p := a.Groups[0].Prob; math.Abs(p-1.0/4096) > 1e-12 {
		t.Fatalf("prob = %v, want 1/4096", p)
	}
	if a.MinRuns != 84873 {
		t.Fatalf("MinRuns = %d", a.MinRuns)
	}
}

func TestLowImpactGroupsFiltered(t *testing.T) {
	// Lines accessed only in one burst (no re-reference after eviction
	// pressure) produce no abrupt impact: a long unique-scan trace has no
	// relevant groups even with many distinct lines.
	var tr trace.Trace
	for l := uint64(0); l < 50; l++ {
		tr = append(tr, trace.Access{Addr: l * 32, Kind: trace.Data})
	}
	a, err := Analyze(tr, proc.DefaultModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.MinRuns != 0 {
		t.Fatalf("MinRuns = %d, want 0 for a streaming scan", a.MinRuns)
	}
}

func TestProbFloorExcludesRareClasses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxExtraWays = 1 // consider k = W+2 = 6-line groups too
	cfg.ProbFloor = 1e-4 // but discard anything rarer than 1e-4
	tr := trace.Repeat(trace.FromLetters("ABCDEA", 32), 1000)
	a, err := Analyze(tr, paperModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Single 5-line group has p = 2.4e-4 >= floor: kept. A 6-line group
	// cannot exist (only 5 lines). MinRuns unchanged.
	if a.MinRuns != 84873 {
		t.Fatalf("MinRuns = %d", a.MinRuns)
	}
	cfg.ProbFloor = 1e-3 // now even the 5-line class is below the floor
	a, err = Analyze(tr, paperModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MinRuns != 0 {
		t.Fatalf("MinRuns = %d, want 0 with prob floor 1e-3", a.MinRuns)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := trace.FromLetters("AB", 32)
	bad := DefaultConfig()
	bad.MissProb = 0
	if _, err := Analyze(tr, paperModel(), bad); err == nil {
		t.Fatal("expected error for MissProb=0")
	}
	bad = DefaultConfig()
	bad.HotLines = 1
	if _, err := Analyze(tr, paperModel(), bad); err == nil {
		t.Fatal("expected error for HotLines=1")
	}
	bad = DefaultConfig()
	bad.BaselineSeeds = -1
	if _, err := Analyze(tr, paperModel(), bad); err == nil {
		t.Fatal("expected error for BaselineSeeds=-1")
	}
	bad = DefaultConfig()
	bad.PinSeeds = -1
	if _, err := Analyze(tr, paperModel(), bad); err == nil {
		t.Fatal("expected error for PinSeeds=-1")
	}
	// classify would drop every class under these, and the campaign would
	// lose TAC's sizing without a word.
	for _, tol := range []float64{-0.1, math.NaN()} {
		bad = DefaultConfig()
		bad.ImpactTol = tol
		if _, err := Analyze(tr, paperModel(), bad); err == nil {
			t.Fatalf("expected error for ImpactTol=%v", tol)
		}
	}
	bad = DefaultConfig()
	bad.ProbFloor = math.NaN()
	if _, err := Analyze(tr, paperModel(), bad); err == nil {
		t.Fatal("expected error for ProbFloor=NaN")
	}
	// Under the first two every candidate group would count as relevant,
	// under +Inf none, and MinRuns would drop to 0.
	for _, rel := range []float64{math.NaN(), -0.1, math.Inf(1)} {
		bad = DefaultConfig()
		bad.MinImpactRel = rel
		if _, err := Analyze(tr, paperModel(), bad); err == nil {
			t.Fatalf("expected error for MinImpactRel=%v", rel)
		}
	}
	ok := DefaultConfig()
	ok.ImpactTol = 0
	if _, err := Analyze(tr, paperModel(), ok); err != nil {
		t.Fatalf("ImpactTol=0: %v", err)
	}
	ok = DefaultConfig()
	ok.MinImpactRel = 0
	if _, err := Analyze(tr, paperModel(), ok); err != nil {
		t.Fatalf("MinImpactRel=0: %v", err)
	}
}

// TestBaselineMeanGolden pins the baseline mean of every benchmark's pubbed
// default path on the paper's platform. The baseline is a campaign, so any
// drift in its seeds, its summation order or the replay fails here.
func TestBaselineMeanGolden(t *testing.T) {
	want := map[string]float64{
		"bs": 541, "cnt": 4159, "fir": 6179, "janne": 715, "crc": 11654, "edn": 4563,
		"insertsort": 1266, "jfdctint": 1703, "matmult": 19045, "fdct": 1306, "ns": 16635,
	}
	bms := malardalen.All()
	if len(bms) != len(want) {
		t.Fatalf("%d benchmarks, want %d", len(bms), len(want))
	}
	for _, bm := range bms {
		pubbed, _, err := pub.Transform(bm.Program)
		if err != nil {
			t.Fatal(err)
		}
		tr := pubbed.MustExec(bm.Default()).Trace
		a, err := Analyze(tr, proc.DefaultModel(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if a.BaselineMean != want[bm.Name] {
			t.Errorf("%s: BaselineMean = %v, want %v", bm.Name, a.BaselineMean, want[bm.Name])
		}
	}
}

func TestCombinations(t *testing.T) {
	var got [][]int
	combinations(4, 2, func(idx []int) {
		got = append(got, append([]int(nil), idx...))
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("combinations = %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("combinations = %v", got)
		}
	}
	combinations(3, 5, func([]int) { t.Fatal("k > n must produce nothing") })
	combinations(3, 0, func([]int) { t.Fatal("k = 0 must produce nothing") })
}

func TestEmptyTrace(t *testing.T) {
	a, err := Analyze(nil, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.MinRuns != 0 || len(a.Groups) != 0 {
		t.Fatalf("empty trace analysis = %+v", a)
	}
}

func TestAnalysisDeterministic(t *testing.T) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFA", 32), 500)
	a1, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(tr, paperModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a1.MinRuns != a2.MinRuns || len(a1.Groups) != len(a2.Groups) {
		t.Fatal("analysis not deterministic")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 500)
	m := proc.DefaultModel()
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tr, m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
