package proc

import (
	"testing"

	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

func TestRunAllMisses(t *testing.T) {
	e := NewEngine(DefaultModel())
	// 4 distinct data lines, first touch: 4 misses, no hits.
	tr := trace.D(0, 32, 64, 96)
	cycles := e.Run(tr, 1)
	want := uint64(4 * 25)
	if cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
}

func TestRunHitsAfterWarmup(t *testing.T) {
	e := NewEngine(DefaultModel())
	tr := trace.Concat(trace.D(0), trace.D(0), trace.D(0))
	cycles := e.Run(tr, 1)
	want := uint64(25 + 1 + 1)
	if cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
}

func TestInstrAndDataUseSeparateCaches(t *testing.T) {
	e := NewEngine(DefaultModel())
	// Same address as instruction and as data: both must cold-miss, since
	// IL1 and DL1 are separate.
	tr := trace.Concat(trace.I(0x40), trace.D(0x40))
	cycles := e.Run(tr, 2)
	if cycles != 50 {
		t.Fatalf("cycles = %d, want 50 (two cold misses)", cycles)
	}
}

func TestRunFlushesBetweenRuns(t *testing.T) {
	e := NewEngine(DefaultModel())
	tr := trace.D(0)
	c1 := e.Run(tr, 1)
	c2 := e.Run(tr, 1)
	if c1 != c2 || c1 != 25 {
		t.Fatalf("cache content leaked across runs: %d then %d", c1, c2)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	e1 := NewEngine(DefaultModel())
	e2 := NewEngine(DefaultModel())
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 50)
	for seed := uint64(0); seed < 20; seed++ {
		if e1.Run(tr, seed) != e2.Run(tr, seed) {
			t.Fatalf("seed %d: runs differ", seed)
		}
	}
}

func TestRandomizationCreatesVariability(t *testing.T) {
	// On the randomized platform, a working set larger than one set's
	// associativity produces run-to-run execution time variability.
	e := NewEngine(DefaultModel())
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJ", 32), 100)
	times := e.Campaign(tr, 200, 7)
	if stats.StdDev(times) == 0 {
		t.Fatal("no execution time variability on randomized platform")
	}
}

func TestDeterministicModelNoVariability(t *testing.T) {
	// Modulo+LRU: same trace, same time, every run.
	e := NewEngine(DefaultModel().Deterministic())
	tr := trace.Repeat(trace.FromLetters("ABCDEFGHIJ", 32), 100)
	times := e.Campaign(tr, 50, 7)
	for _, v := range times[1:] {
		if v != times[0] {
			t.Fatalf("deterministic platform produced variability: %v vs %v", v, times[0])
		}
	}
}

func TestCampaignLengthAndOrderIndependence(t *testing.T) {
	e := NewEngine(DefaultModel())
	tr := trace.FromLetters("ABCD", 32)
	times := e.Campaign(tr, 100, 3)
	if len(times) != 100 {
		t.Fatalf("len = %d", len(times))
	}
	// Run i depends only on (root, i): recompute run 50 standalone.
	single := NewEngine(DefaultModel())
	got := single.Campaign(tr, 51, 3)[50]
	if got != times[50] {
		t.Fatal("campaign runs are not independent of position")
	}
}

func TestPinnedConflictSlowsDown(t *testing.T) {
	// Three hot lines co-mapped into one 2-way DL1 set — forced here by a
	// one-set DL1, the layout TAC prices — must be clearly slower than on
	// the default 64-set DL1, where they almost never collide.
	m := DefaultModel()
	hot := trace.Repeat(trace.D(0, 1*32, 2*32), 500)
	baseMean := stats.Mean(NewEngine(m).Campaign(hot, 50, 11))

	m.DL1.Sets = 1
	conflictMean := stats.Mean(NewEngine(m).Campaign(hot, 50, 11))
	if conflictMean < baseMean*1.5 {
		t.Fatalf("co-mapped mean %.0f not clearly above baseline %.0f", conflictMean, baseMean)
	}
}

func BenchmarkRunSmallTrace(b *testing.B) {
	e := NewEngine(DefaultModel())
	tr := trace.Repeat(trace.FromLetters("ABCDEFGH", 32), 125) // 1000 accesses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(tr, uint64(i))
	}
}
