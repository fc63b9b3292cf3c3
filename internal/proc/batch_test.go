package proc

import (
	"sync"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/malardalen"
	"pubtac/internal/pub"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// wideTrace builds a pseudo-random trace over many distinct lines, so that
// under random placement most seeds overflow some set and must replay the
// stream (the analytic conflict-free path alone cannot answer the block).
func wideTrace(gen *rng.Xoshiro256, n int) trace.Trace { return lineTrace(gen, n, 220) }

// lineTrace builds a pseudo-random trace of n accesses of both kinds over
// up to lines distinct 32-byte lines.
func lineTrace(gen *rng.Xoshiro256, n, lines int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		a := trace.Access{Addr: uint64(gen.Intn(lines)) * 32}
		if gen.Intn(3) == 0 {
			a.Kind = trace.Instr
		} else {
			a.Kind = trace.Data
		}
		tr[i] = a
	}
	return tr
}

// assertCampaignsMatch compares a batched campaign against a loop of Runs
// (one-seed blocks) and the uncompiled reference replay, at lengths that
// cover a lone partial block, partial, exact and multi-block campaigns, and
// a non-zero offset.
func assertCampaignsMatch(t *testing.T, label string, m Model, tr trace.Trace) {
	t.Helper()
	const root = 0xBA7C4
	for _, n := range []int{1, BatchK - 1, BatchK, BatchK + 3, 4 * BatchK, 4*BatchK + 5} {
		for _, offset := range []int{0, 13} {
			batch := make([]float64, n)
			NewEngine(m).CampaignInto(tr, batch, root, offset)
			seed := make([]float64, n)
			perSeed := NewEngine(m)
			for i := range seed {
				seed[i] = float64(perSeed.Run(tr, rng.Stream(root, offset+i)))
			}
			ref := make([]float64, n)
			refEng := NewEngine(m)
			refEng.UseReference(true)
			refEng.CampaignInto(tr, ref, root, offset)
			for i := range batch {
				if batch[i] != seed[i] || batch[i] != ref[i] {
					t.Fatalf("%s: n=%d offset=%d run %d: batch %v, per-seed %v, reference %v",
						label, n, offset, i, batch[i], seed[i], ref[i])
				}
			}
		}
	}
}

// TestBatchCampaignMatchesPerSeed is the bit-identity oracle of the batched
// replay: for every placement/replacement combination, with and without
// miss jitter, on both a conflict-heavy and a mostly-conflict-free trace,
// and on the shapes the misses-only replay owns, batch campaigns must equal
// per-seed Runs and the reference replay exactly.
func TestBatchCampaignMatchesPerSeed(t *testing.T) {
	gen := rng.New(0xBA7C)
	narrow := randomTrace(gen, 400) // few lines: mostly analytic path
	wide := wideTrace(gen, 600)     // many lines: mostly replay path
	for _, m := range policyCombos() {
		for _, jitter := range []uint64{0, 5} {
			m := m
			m.Lat.MissJitter = jitter
			assertCampaignsMatch(t, "narrow", m, narrow)
			assertCampaignsMatch(t, "wide", m, wide)
		}
	}
	for _, sh := range replayShapes(gen) {
		for _, m := range shapeModels(sh) {
			for _, jitter := range []uint64{0, 5} {
				m.Lat.MissJitter = jitter
				assertCampaignsMatch(t, sh.name, m, sh.tr)
			}
		}
	}
}

// replayShape is a cache geometry and a trace for the compiled replay,
// beyond the default platform.
type replayShape struct {
	name       string
	sets, ways int
	tr         trace.Trace
}

// replayShapes covers associativity that is not a power of two, traces
// with more distinct lines than sets × ways (every seed overflows), a
// 1-set cache, lines of an overflowing set evicted after their last
// access, so that their posting lists run out, and lines that live in
// disjoint bursts, beside a hot line or alone, so that many overflowing
// seeds evict only dead lines.
func replayShapes(gen *rng.Xoshiro256) []replayShape {
	// D..H are accessed once each, then A, B and C take over the one set:
	// every line D..H is evicted after its last access.
	runOut := trace.Concat(trace.FromLetters("ABCDEFGH", 32),
		trace.Repeat(trace.FromLetters("ABCAB", 32), 30), trace.I(0, 32, 64, 96, 0, 32))
	return []replayShape{
		{"3-way-16-sets", 16, 3, lineTrace(gen, 600, 40)},
		{"over-capacity", 4, 2, lineTrace(gen, 400, 24)},
		{"1-set", 1, 3, lineTrace(gen, 300, 6)},
		{"postings-run-out", 1, 2, runOut},
		{"hot-and-bursts", 8, 2, trace.Concat(burstTrace(trace.Data, 20, 3, true),
			burstTrace(trace.Instr, 12, 2, true))},
		{"bursts", 2, 2, trace.Concat(burstTrace(trace.Data, 16, 3, false),
			burstTrace(trace.Instr, 9, 2, false))},
	}
}

// burstTrace builds accesses of one kind to lines 1..bursts, each line
// accessed reps times in a burst of its own and never again. With hot set,
// line 0 is also accessed before every access of a burst and once at the
// end, so it is live across the whole trace while every other line lives
// only within its burst: the shape of ns's DL1 accesses, where a seed
// evicts a live line only when a line arrives at the hot line's full set.
func burstTrace(kind trace.Kind, bursts, reps int, hot bool) trace.Trace {
	var tr trace.Trace
	for b := 1; b <= bursts; b++ {
		for r := 0; r < reps; r++ {
			if hot {
				tr = append(tr, trace.Access{Addr: 0, Kind: kind})
			}
			tr = append(tr, trace.Access{Addr: uint64(b) * 32, Kind: kind})
		}
	}
	if hot {
		tr = append(tr, trace.Access{Addr: 0, Kind: kind})
	}
	return tr
}

// shapeModels returns the models of a replay shape: its geometry on both
// caches, under all four placement/replacement pairs.
func shapeModels(sh replayShape) []Model {
	out := policyCombos()
	for i := range out {
		for _, c := range []*cache.Config{&out[i].IL1, &out[i].DL1} {
			c.Sets, c.Ways = sh.sets, sh.ways
		}
	}
	return out
}

// TestPlaceBlockFlagsOverflowingSets pins the set accounting the replay
// relies on against cache.Cache.SetOf and the trace. overflows holds for
// exactly the sets of a seed that hold more than Ways lines; a set holding
// Ways lines never evicts, so it must not count as overflowing. placeBlock
// flags exactly the seeds where a line, arriving in order of first access
// at a set that already holds Ways or more lines, finds one of them still
// to be accessed after that first access; every other seed, overflowing or
// not, evicts only dead lines. The shapes must show both flagged and
// unflagged overflowing seeds under both replacement policies.
func TestPlaceBlockFlagsOverflowingSets(t *testing.T) {
	gen := rng.New(0x0CC)
	// Overflowing seeds seen, [replacement policy][unflagged, flagged].
	var seen [2][2]int
	for _, sh := range replayShapes(gen) {
		for _, m := range shapeModels(sh) {
			// The DL1 lines in order of first access, with their first and
			// last positions in the DL1 access sequence.
			var order []uint64
			first, last := map[uint64]int{}, map[uint64]int{}
			pos := 0
			for _, a := range sh.tr {
				if a.Kind != trace.Data {
					continue
				}
				line := a.Addr >> m.DL1.LineShift()
				if _, ok := first[line]; !ok {
					first[line] = pos
					order = append(order, line)
				}
				last[line] = pos
				pos++
			}
			ct := Compile(sh.tr, m)
			bs := &batchSide{cfg: m.DL1}
			side := &ct.dl1
			for blk := 0; blk < 4; blk++ {
				var seeds [BatchK]uint64
				for k := range seeds {
					seeds[k] = gen.Uint64()
				}
				conflict := bs.placeBlock(side, &seeds)
				for k, seed := range seeds {
					c := cache.New(m.DL1, seed)
					held := map[int][]uint64{} // per set, the lines arrived so far
					flag := false
					for _, line := range order {
						set := c.SetOf(line)
						if len(held[set]) >= side.ways {
							for _, e := range held[set] {
								flag = flag || last[e] > first[line]
							}
						}
						held[set] = append(held[set], line)
					}
					over := false
					for set := 0; set < side.sets; set++ {
						want := len(held[set]) > side.ways
						over = over || want
						if got := bs.overflows(side, int32(k*side.sets+set)); got != want {
							t.Fatalf("%s: seed %d set %d holds %d lines of %d ways: overflows = %v",
								sh.name, k, set, len(held[set]), side.ways, got)
						}
					}
					if got := conflict&(1<<k) != 0; got != flag {
						t.Fatalf("%s, %+v: seed %d conflict bit %v, want %v (overflowing: %v)",
							sh.name, m.DL1, k, got, flag, over)
					}
					if over && flag {
						seen[m.DL1.Replacement][1]++
					} else if over {
						seen[m.DL1.Replacement][0]++
					}
				}
			}
		}
	}
	for r, n := range seen {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("replacement policy %d: %d unflagged and %d flagged overflowing seeds, want both",
				r, n[0], n[1])
		}
	}
}

// TestBatchCampaignHigherAssoc covers a 4-way geometry under both
// replacement policies.
func TestBatchCampaignHigherAssoc(t *testing.T) {
	gen := rng.New(0x4A55)
	tr := wideTrace(gen, 500)
	m := DefaultModel()
	m.IL1.Ways, m.IL1.Sets = 4, 32
	m.DL1.Ways, m.DL1.Sets = 4, 32
	assertCampaignsMatch(t, "4way-random", m, tr)
	m.IL1.Replacement = cache.LRUReplacement
	m.DL1.Replacement = cache.LRUReplacement
	assertCampaignsMatch(t, "4way-lru", m, tr)
}

// TestCampaignMatchesReferenceOnPaperPaths runs the campaign oracle on the
// pubbed default paths of the 11 benchmarks. There one cache typically
// overflows a set while the other stays conflict-free (matmult's DL1
// against its IL1, for example), so each cache's replay must stand on its
// own. CampaignInto must equal the reference replay run for run, with and
// without miss jitter.
func TestCampaignMatchesReferenceOnPaperPaths(t *testing.T) {
	const root = 0x9A9E4
	arms := []struct {
		jitter      uint64
		runs, short int
	}{{0, 4096, 512}, {4, 1024, 128}}
	for _, p := range paperPaths(t) {
		tr := p.tr
		ct := Compile(tr, DefaultModel())
		for _, arm := range arms {
			n := arm.runs
			if testing.Short() {
				n = arm.short
			}
			m := DefaultModel()
			m.Lat.MissJitter = arm.jitter
			e := NewEngine(m)
			e.SetCompiled(ct, tr)
			got := make([]float64, n)
			e.CampaignInto(tr, got, root, 0)
			ref := NewEngine(m)
			ref.UseReference(true)
			want := make([]float64, n)
			ref.CampaignInto(tr, want, root, 0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, jitter %d, run %d: batched %v, reference %v",
						p.name, arm.jitter, i, got[i], want[i])
				}
			}
		}
	}
}

// namedTrace is a trace and the name its test failures report.
type namedTrace struct {
	name string
	tr   trace.Trace
}

// paperPaths returns the pubbed default paths of the 11 benchmarks.
func paperPaths(t *testing.T) []namedTrace {
	t.Helper()
	var out []namedTrace
	for _, bm := range malardalen.All() {
		pubbed, _, err := pub.Transform(bm.Program)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedTrace{bm.Name, pubbed.MustExec(bm.Default()).Trace})
	}
	return out
}

// TestLineMissesMatchesCache checks LineMisses' per-line sums against a
// cache.Cache reseeded per seed and driven line by line, for seed counts
// that cover no block, partial, full and multi-block calls, on every
// policy combination, both caches, a trace with no instruction accesses,
// the shapes the misses-only replay owns, and the 11 pubbed default paths
// on the default platform, where one cache overflows a set while the other
// stays clean.
func TestLineMissesMatchesCache(t *testing.T) {
	gen := rng.New(0x11E5)
	traces := []namedTrace{
		{"narrow", randomTrace(gen, 400)},
		{"wide", wideTrace(gen, 600)},
		{"data-only", trace.Repeat(trace.FromLetters("ABCDEFGHIJ", 32), 20)},
	}
	for _, m := range policyCombos() {
		for _, tc := range traces {
			for _, n := range []int{0, 1, 7, 8, 13} {
				assertLineMissesMatch(t, tc.name, m, tc.tr, n)
			}
		}
	}
	for _, sh := range replayShapes(gen) {
		for _, m := range shapeModels(sh) {
			for _, n := range []int{1, 13} {
				assertLineMissesMatch(t, sh.name, m, sh.tr, n)
			}
		}
	}
	for _, p := range paperPaths(t) {
		for _, n := range []int{1, 13} {
			assertLineMissesMatch(t, p.name, DefaultModel(), p.tr, n)
		}
	}
}

// assertLineMissesMatch compares LineMisses over n seeds with the per-line
// miss sums of a cache.Cache reseeded per seed, on both caches.
func assertLineMissesMatch(t *testing.T, label string, m Model, tr trace.Trace, n int) {
	t.Helper()
	e := NewEngine(m)
	ct := Compile(tr, m)
	e.SetCompiled(ct, tr)
	for _, kind := range []trace.Kind{trace.Instr, trace.Data} {
		cfg := m.DL1
		if kind == trace.Instr {
			cfg = m.IL1
		}
		seeds := make([]uint64, n)
		want := map[uint64]uint64{}
		c := cache.New(cfg, 0)
		for i := range seeds {
			seeds[i] = rng.Stream(0x11E5, i)
			c.Reseed(seeds[i])
			for _, a := range tr {
				line := a.Addr >> cfg.LineShift()
				if a.Kind == kind && !c.AccessLine(line) {
					want[line]++
				}
			}
		}
		got := e.LineMisses(kind, seeds)
		lines := ct.SideLines(kind)
		if len(got) != len(lines) {
			t.Fatalf("%s/%v/%d seeds: %d sums for %d lines", label, kind, n, len(got), len(lines))
		}
		for id, l := range lines {
			if got[id] != want[l] {
				t.Fatalf("%s/%v/%d seeds: line %#x missed %d times, cache.Cache %d",
					label, kind, n, l, got[id], want[l])
			}
		}
	}
}

// FuzzCampaignMatchesReference drives the replay with fuzzed traces and
// geometries. The first two bytes pick the cache geometry (sets in {1, 2,
// 4, 8, 16}, ways in 1..4), the placement, the replacement and the miss
// jitter (0 or 3); every further byte, up to 512, is one access: the low
// six bits pick one of 64 lines, bit 6 the cache. A campaign of 2·BatchK+3
// runs must equal the reference replay run for run, and LineMisses must
// equal a reseeded cache.Cache's per-line sums. Two seeds are burst-shaped:
// a hot line beside bursts at 8 sets × 2 ways under random replacement
// with jitter, and bare bursts at 2 sets × 2 ways under LRU.
func FuzzCampaignMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00}, uint64(1))
	f.Add(append([]byte{0x0A, 0x00}, []byte("ABCDEFGHABABCDABCABAB")...), uint64(2))
	f.Add(append([]byte{0x09, 0x04}, []byte("the quick brown fox jumps over the lazy dog")...), uint64(3))
	f.Add(append([]byte{0x1B, 0x01}, []byte("\x00\x10\x20\x30\x40\x50\x00\x10\x20\x40\x50\x30\x00")...), uint64(4))
	f.Add(append([]byte{0x14, 0x06}, []byte("@ABC@ABC@ABD@ABE@ABFGHIJKLMNOP@A@B@C")...), uint64(5))
	f.Add(append([]byte{0x03, 0x03}, []byte("0123456789:;<=>?0123456789")...), uint64(6))
	f.Add(append([]byte{0x08, 0x04}, fuzzAccesses(trace.Concat(burstTrace(trace.Data, 20, 3, true),
		burstTrace(trace.Instr, 8, 2, true)))...), uint64(7))
	f.Add(append([]byte{0x0B, 0x02}, fuzzAccesses(trace.Concat(burstTrace(trace.Data, 12, 3, false),
		burstTrace(trace.Instr, 6, 2, false)))...), uint64(8))
	f.Fuzz(func(t *testing.T, data []byte, root uint64) {
		if len(data) < 2 {
			return
		}
		geo, pol := data[0], data[1]
		m := DefaultModel()
		for _, c := range []*cache.Config{&m.IL1, &m.DL1} {
			c.Sets = 1 << (geo % 5)
			c.Ways = 1 + int(geo>>3)%4
			c.Placement = cache.PlacementPolicy(pol & 1)
			c.Replacement = cache.ReplacementPolicy(pol >> 1 & 1)
		}
		if pol&4 != 0 {
			m.Lat.MissJitter = 3
		}
		data = data[2:min(len(data), 2+512)]
		tr := make(trace.Trace, len(data))
		for i, b := range data {
			tr[i] = trace.Access{Addr: uint64(b&63) * 32, Kind: trace.Data}
			if b&64 != 0 {
				tr[i].Kind = trace.Instr
			}
		}

		const n = 2*BatchK + 3
		got := make([]float64, n)
		NewEngine(m).CampaignInto(tr, got, root, 0)
		ref := NewEngine(m)
		ref.UseReference(true)
		want := make([]float64, n)
		ref.CampaignInto(tr, want, root, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: run %d: batched %v, reference %v", m, i, got[i], want[i])
			}
		}
		assertLineMissesMatch(t, "fuzz", m, tr, n)
	})
}

// fuzzAccesses encodes a trace over lines 0..63 as the accesses of a
// FuzzCampaignMatchesReference input: one byte per access, the line in the
// low six bits and bit 6 set for an instruction.
func fuzzAccesses(tr trace.Trace) []byte {
	out := make([]byte, len(tr))
	for i, a := range tr {
		out[i] = byte(a.Addr/32) & 63
		if a.Kind == trace.Instr {
			out[i] |= 64
		}
	}
	return out
}

// TestSharedCompiledConcurrentWorkers replays one shared CompiledTrace from
// many goroutines at once — the campaign-worker topology of package mbpta —
// and checks the assembled campaign against a single-engine run. Run under
// -race, this is the data-race oracle for CompiledTrace immutability.
func TestSharedCompiledConcurrentWorkers(t *testing.T) {
	gen := rng.New(0x5AFE)
	tr := wideTrace(gen, 500)
	m := DefaultModel()
	ct := Compile(tr, m)

	const workers = 8
	const perWorker = 3 * BatchK
	const root = 0xFA2
	got := make([]float64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := NewEngine(m)
			eng.SetCompiled(ct, tr)
			eng.CampaignInto(tr, got[w*perWorker:(w+1)*perWorker], root, w*perWorker)
		}(w)
	}
	wg.Wait()

	want := NewEngine(m).Campaign(tr, workers*perWorker, root)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d: concurrent workers %v, single engine %v", i, got[i], want[i])
		}
	}
}

// TestSetCompiledRejectsForeignGeometry pins the SetCompiled contract: a
// compilation for a different geometry (or line size) must be refused, and
// a matching one must be adopted without recompiling.
func TestSetCompiledRejectsForeignGeometry(t *testing.T) {
	tr := trace.FromLetters("ABCD", 32)
	m := DefaultModel()
	ct := Compile(tr, m)

	e := NewEngine(m)
	e.SetCompiled(ct, tr)
	if e.compiledFor(tr) != ct {
		t.Fatal("SetCompiled did not install the shared compilation")
	}

	other := m
	other.DL1.LineBytes = 16
	defer func() {
		if recover() == nil {
			t.Fatal("SetCompiled accepted a compilation for a different line size")
		}
	}()
	NewEngine(other).SetCompiled(ct, tr)
}

// TestBatchCampaignNoAllocs checks that steady-state batched campaigns do
// not allocate: scratch and generators are all reused across blocks.
func TestBatchCampaignNoAllocs(t *testing.T) {
	gen := rng.New(0xA110C)
	tr := wideTrace(gen, 300)
	e := NewEngine(DefaultModel())
	dst := make([]float64, 4*BatchK)
	e.CampaignInto(tr, dst, 1, 0) // warm up: compile + scratch allocation
	avg := testing.AllocsPerRun(20, func() {
		e.CampaignInto(tr, dst, 1, 0)
	})
	if avg != 0 {
		t.Fatalf("batched campaign allocates %.1f objects per call, want 0", avg)
	}
}
