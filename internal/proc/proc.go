// Package proc models the evaluation platform's processor timing: a
// pipelined in-order core with separate first-level instruction (IL1) and
// data (DL1) caches, analogous to the LEON3-class platform of the paper.
//
// The model is trace-driven. For an in-order pipeline, execution time is
// additive in the cache behavior of the access stream: every access costs
// its hit latency when it hits and the memory latency when it misses; a
// fixed issue cost accounts for the pipeline's single-cycle throughput.
// This is exactly the level of detail MBPTA and TAC reason about: the
// mapping from (placement, replacement) randomness to execution-time
// variability.
//
// Before each run the caches are flushed and reseeded (random placement is
// parametric per run), matching the paper's measurement protocol.
package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// Latency collects the cycle costs of the timing model.
type Latency struct {
	Issue uint64 // fixed per-access pipeline cost
	Hit   uint64 // additional cycles on an L1 hit
	Miss  uint64 // additional cycles on an L1 miss (memory access)

	// MissJitter adds a uniformly random 0..MissJitter-1 extra cycles to
	// every miss, modelling the randomized arbitration/bus jitter of
	// MBPTA-compliant platforms. Randomized jitter smooths the otherwise
	// purely discrete miss-count distribution, like the additional
	// randomization sources of the reference platforms.
	MissJitter uint64
}

// DefaultLatency returns the latencies used throughout the evaluation:
// single-cycle issue and hit, 25-cycle memory access. MissJitter is off by
// default; the ablation benchmarks exercise it.
func DefaultLatency() Latency { return Latency{Issue: 0, Hit: 1, Miss: 25} }

// Model describes a full platform configuration.
type Model struct {
	IL1 cache.Config
	DL1 cache.Config
	Lat Latency
}

// DefaultModel returns the paper's platform: 4KB 2-way 32B/line IL1 and DL1
// with random placement and replacement.
func DefaultModel() Model {
	return Model{IL1: cache.DefaultL1(), DL1: cache.DefaultL1(), Lat: DefaultLatency()}
}

// Deterministic returns the same geometry with modulo placement and LRU
// replacement (the time-deterministic contrast of Section 2).
func (m Model) Deterministic() Model {
	m.IL1.Placement = cache.ModuloPlacement
	m.IL1.Replacement = cache.LRUReplacement
	m.DL1.Placement = cache.ModuloPlacement
	m.DL1.Replacement = cache.LRUReplacement
	return m
}

// Per-run seed derivation salts: one run seed fans out into independent
// placement/replacement streams per cache plus the miss-jitter stream. The
// batched replay (batch.go) derives the same streams for a block of run
// seeds at once, so these are named rather than inlined in Run.
const (
	ilSeedSalt     = 0x11
	dlSeedSalt     = 0xDD
	jitterSeedSalt = 0x717
)

// Engine executes traces against one platform instance. It is not safe for
// concurrent use; create one Engine per goroutine (they are cheap).
type Engine struct {
	model Model

	// The uncompiled reference replay's caches and jitter stream.
	il1    *cache.Cache
	dl1    *cache.Cache
	jitter *rng.Xoshiro256

	// The compiled replay (compile.go, batch.go): the last compiled trace,
	// the trace it was compiled from (identity key), the batched replay
	// scratch, and the opt-out used by equivalence tests.
	ct        *CompiledTrace
	ctTrace   trace.Trace
	batch     *batchState
	reference bool
}

// NewEngine builds an execution engine for the model.
func NewEngine(m Model) *Engine {
	return &Engine{
		model:  m,
		il1:    cache.New(m.IL1, 0),
		dl1:    cache.New(m.DL1, 1),
		jitter: rng.New(2),
		batch:  new(batchState),
	}
}

// Model returns the engine's platform model.
func (e *Engine) Model() Model { return e.model }

// UseReference forces Run and Campaign through the uncompiled reference
// replay when on is true. The batched replay is bit-identical (that is
// what the equivalence tests assert, using this switch for the reference
// arm); production code has no reason to disable it.
func (e *Engine) UseReference(on bool) { e.reference = on }

// Run executes tr as one program run with the given seed: caches are
// flushed, the random placement and replacement streams are redrawn from the
// seed, and the trace is replayed. It returns the execution time in cycles.
//
// Run is a one-seed block of the batched replay (see batch.go), compiling tr
// on first use and reusing the compilation across runs of the same trace;
// results are bit-identical to the reference replay.
func (e *Engine) Run(tr trace.Trace, seed uint64) uint64 {
	if e.reference {
		e.il1.Reseed(rng.Mix64(seed ^ ilSeedSalt))
		e.dl1.Reseed(rng.Mix64(seed ^ dlSeedSalt))
		e.jitter.Reseed(rng.Mix64(seed ^ jitterSeedSalt))
		return e.replay(tr)
	}
	e.batch.seeds[0] = seed
	e.runBlock(e.compiledFor(tr), 1)
	return e.batch.cycles[0]
}

// replay is the uncompiled reference replay: every access goes through the
// Cache objects Run has just flushed and reseeded, accumulating cycles.
//
//pubtac:reference campaign
func (e *Engine) replay(tr trace.Trace) uint64 {
	lat := e.model.Lat
	var cycles uint64
	for _, a := range tr {
		var hit bool
		if a.Kind == trace.Instr {
			hit = e.il1.Access(a.Addr)
		} else {
			hit = e.dl1.Access(a.Addr)
		}
		cycles += lat.Issue
		if hit {
			cycles += lat.Hit
		} else {
			cycles += lat.Miss
			if lat.MissJitter > 0 {
				cycles += e.jitter.Uint64() % lat.MissJitter
			}
		}
	}
	return cycles
}

// Campaign runs tr n times with seeds derived from root via rng.Stream and
// returns the execution times in run order. It is the basic measurement
// campaign primitive; higher layers (mbpta) add convergence logic and
// parallelism.
func (e *Engine) Campaign(tr trace.Trace, n int, root uint64) []float64 {
	times := make([]float64, n)
	e.CampaignInto(tr, times, root, 0)
	return times
}

// CampaignInto fills dst with the execution times of runs offset,
// offset+1, ... of the campaign rooted at root. Because run i depends only
// on (root, i), campaigns can be split across engines and goroutines with
// bit-identical results.
//
// Unless UseReference is set, runs replay through the batched replay (see
// CampaignBatchInto): BatchK seeds share each pass over the compiled stream.
func (e *Engine) CampaignInto(tr trace.Trace, dst []float64, root uint64, offset int) {
	if e.reference {
		for i := range dst {
			dst[i] = float64(e.Run(tr, rng.Stream(root, offset+i)))
		}
		return
	}
	e.CampaignBatchInto(tr, dst, root, offset)
}
