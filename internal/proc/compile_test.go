package proc

import (
	"testing"

	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// randomTrace builds a pseudo-random trace over a small address range so
// that set conflicts, reuse and both caches are all exercised.
func randomTrace(gen *rng.Xoshiro256, n int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		a := trace.Access{Addr: uint64(gen.Intn(40)) * 8}
		if gen.Intn(3) == 0 {
			a.Kind = trace.Instr
		} else {
			a.Kind = trace.Data
		}
		tr[i] = a
	}
	return tr
}

// policyCombos enumerates the four placement/replacement combinations on
// the default geometry.
func policyCombos() []Model {
	var out []Model
	for _, p := range []cache.PlacementPolicy{cache.RandomPlacement, cache.ModuloPlacement} {
		for _, r := range []cache.ReplacementPolicy{cache.RandomReplacement, cache.LRUReplacement} {
			m := DefaultModel()
			m.IL1.Placement, m.IL1.Replacement = p, r
			m.DL1.Placement, m.DL1.Replacement = p, r
			out = append(out, m)
		}
	}
	return out
}

// assertRunsMatch runs seeds through a compiled and a reference engine and
// compares their cycles exactly: the Run-vs-reference oracle, driving Run's
// one-seed block of the batched replay against the uncompiled replay
// through the UseReference switch.
func assertRunsMatch(t *testing.T, label string, m Model, tr trace.Trace, seeds int) {
	t.Helper()
	fast := NewEngine(m)
	ref := NewEngine(m)
	ref.UseReference(true)
	for s := 0; s < seeds; s++ {
		seed := rng.Stream(0xE9, s)
		if cf, cr := fast.Run(tr, seed), ref.Run(tr, seed); cf != cr {
			t.Fatalf("%s: seed %d: compiled %d cycles, reference %d", label, s, cf, cr)
		}
	}
}

// TestCompiledMatchesReference fuzzes the compiled replay against the
// reference engine over random traces, all policy combinations, and the
// randomized miss jitter.
func TestCompiledMatchesReference(t *testing.T) {
	gen := rng.New(0xC0DE)
	for _, m := range policyCombos() {
		for _, jitter := range []uint64{0, 5} {
			m := m
			m.Lat.MissJitter = jitter
			assertRunsMatch(t, "combo", m, randomTrace(gen, 400), 25)
		}
	}
}

// TestCompiledMatchesReferenceHigherAssoc covers the generic replay loop
// with a 4-way geometry (the specialized loop only handles 2-way random).
func TestCompiledMatchesReferenceHigherAssoc(t *testing.T) {
	gen := rng.New(0xA550C)
	m := DefaultModel()
	m.IL1.Ways, m.IL1.Sets = 4, 32
	m.DL1.Ways, m.DL1.Sets = 4, 32
	assertRunsMatch(t, "4way-random", m, randomTrace(gen, 400), 25)
	m.IL1.Replacement = cache.LRUReplacement
	m.DL1.Replacement = cache.LRUReplacement
	assertRunsMatch(t, "4way-lru", m, randomTrace(gen, 400), 25)
}

// TestCompileStream sanity-checks the projection itself.
func TestCompileStream(t *testing.T) {
	tr := trace.Concat(trace.I(0x40, 0x44, 0x80), trace.D(0, 32, 0))
	ct := Compile(tr, DefaultModel())
	if ct.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ct.Len())
	}
	// 0x40 and 0x44 share a 32-byte line; 0 and 32 do not.
	il, dl := ct.DistinctLines()
	if il != 2 || dl != 2 {
		t.Fatalf("distinct lines = %d/%d, want 2/2", il, dl)
	}
}

// TestRunNoAllocs checks the no-allocation property of steady-state runs
// (the jitter, placement and replacement generators are reseeded in place,
// and the block scratch is reused).
func TestRunNoAllocs(t *testing.T) {
	tr := goldenTrace()
	e := NewEngine(DefaultModel())
	e.Run(tr, 0) // warm up: compile + scratch allocation
	avg := testing.AllocsPerRun(50, func() {
		e.Run(tr, 1)
	})
	if avg != 0 {
		t.Fatalf("Run allocates %.1f objects per run, want 0", avg)
	}
}
