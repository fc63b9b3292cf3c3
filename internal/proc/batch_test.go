package proc

import (
	"sync"
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// wideTrace builds a pseudo-random trace over many distinct lines, so that
// under random placement most seeds overflow some set and must replay the
// stream (the analytic conflict-free path alone cannot answer the block).
func wideTrace(gen *rng.Xoshiro256, n int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		a := trace.Access{Addr: uint64(gen.Intn(220)) * 32}
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
			NewEngine(m).CampaignBatchInto(tr, batch, root, offset)
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
// batch campaigns must equal per-seed Runs and the reference replay exactly.
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
}

// TestBatchCampaignHigherAssoc covers the generic batched loop with a 4-way
// geometry (the specialized loop only handles 2-way random/random).
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
