package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/trace"
)

// This file implements trace compilation, the front half of the compiled
// replay.
//
// A trace is replayed 10^5-10^6 times per campaign, so per-access work
// dominates the whole analysis. The reference replay pays, on every access:
// a byte-address shift and a Mix64 placement hash — even though under
// parametric random placement the set of a line is fixed for the duration
// of a run. Compilation hoists all of that out of the run loop: each cache's
// accesses are projected once onto that cache's dense line IDs, so the
// batched replay (batch.go) evaluates the placement of each *distinct* line
// once per run and replays each cache's ID sequence on its own against flat
// ID-indexed set state. IL1 and DL1 share nothing within a run but the cycle
// sum, so neither needs the other's accesses. Results are bit-identical to
// the reference replay; the golden and equivalence tests in golden_test.go,
// compile_test.go and batch_test.go enforce this.

// invalidID is the sentinel stored in compiled set state for an empty way,
// replacing the reference engine's separate valid[] array. Line IDs are
// dense non-negative ints, so a single comparison covers both "occupied by
// another line" and "empty".
const invalidID = -1

// CompiledTrace is a trace pre-projected onto the line geometry of a
// platform model: per cache, its distinct line addresses and its accesses as
// dense line IDs. Compile once, replay many times; a CompiledTrace is
// immutable and may be shared across engines and goroutines.
type CompiledTrace struct {
	il1 compiledSide
	dl1 compiledSide
}

// compiledSide is the per-cache projection: the distinct line addresses in
// first-appearance order (the dense ID of a line is its index), the cache's
// accesses in trace order as dense IDs, and the geometry it was compiled
// against.
type compiledSide struct {
	lines []uint64
	ids   []int32
	sets  int
	ways  int
	shift uint // byte-address-to-line shift the projection used
}

// side returns the projection of the cache serving accesses of kind k.
func (ct *CompiledTrace) side(k trace.Kind) *compiledSide {
	if k == trace.Instr {
		return &ct.il1
	}
	return &ct.dl1
}

// Len returns the number of accesses in the compiled trace.
func (ct *CompiledTrace) Len() int { return len(ct.il1.ids) + len(ct.dl1.ids) }

// SideLines returns the distinct line addresses of one cache side in
// first-appearance order — the dense ID of a line is its index. The slice
// is the compilation's own and must be treated as read-only; package tac
// builds its posting-list index on these IDs instead of re-projecting the
// trace through a map of its own.
func (ct *CompiledTrace) SideLines(k trace.Kind) []uint64 { return ct.side(k).lines }

// SideIDs returns the accesses of one cache side in trace order, as dense
// line IDs in the ID space of SideLines. The slice is the compilation's own
// and must be treated as read-only.
func (ct *CompiledTrace) SideIDs(k trace.Kind) []int32 { return ct.side(k).ids }

// Compile projects tr onto the cache geometry of m. The result replays
// bit-identically to the reference engine on any engine built for the same
// model.
func Compile(tr trace.Trace, m Model) *CompiledTrace {
	ct := &CompiledTrace{
		il1: compiledSide{sets: m.IL1.Sets, ways: m.IL1.Ways, shift: m.IL1.LineShift()},
		dl1: compiledSide{sets: m.DL1.Sets, ways: m.DL1.Ways, shift: m.DL1.LineShift()},
	}
	// A counting pass sizes both sequences exactly; append growth would
	// copy and allocate several times over.
	nInstr := 0
	for _, a := range tr {
		if a.Kind == trace.Instr {
			nInstr++
		}
	}
	ct.il1.ids = make([]int32, 0, nInstr)
	ct.dl1.ids = make([]int32, 0, len(tr)-nInstr)
	ilIDs := make(map[uint64]int32)
	dlIDs := make(map[uint64]int32)
	for _, a := range tr {
		side, idOf := &ct.dl1, dlIDs
		if a.Kind == trace.Instr {
			side, idOf = &ct.il1, ilIDs
		}
		line := a.Addr >> side.shift
		id, ok := idOf[line]
		if !ok {
			id = int32(len(side.lines))
			idOf[line] = id
			side.lines = append(side.lines, line)
		}
		side.ids = append(side.ids, id)
	}
	return ct
}

// matches reports whether the projection was compiled for cache geometry
// cfg (same sets, ways and line size — everything Compile depends on).
func (cs *compiledSide) matches(cfg cache.Config) bool {
	return cs.sets == cfg.Sets && cs.ways == cfg.Ways && cs.shift == cfg.LineShift()
}

// SetCompiled installs ct, a shared compilation of tr, as this engine's
// compiled form of tr. A CompiledTrace is immutable, so one compilation can
// be handed to every campaign worker; each engine keeps only its private
// replay scratch. It panics when ct was compiled for a different cache
// geometry than the engine's model (programming error).
func (e *Engine) SetCompiled(ct *CompiledTrace, tr trace.Trace) {
	if !ct.il1.matches(e.model.IL1) || !ct.dl1.matches(e.model.DL1) {
		panic("proc: SetCompiled with a trace compiled for a different cache geometry")
	}
	e.ct, e.ctTrace = ct, tr
}

// compiledFor returns the compiled form of tr, reusing the cached one when
// tr is the same slice as on the previous call. Traces are treated as
// immutable throughout the repository (PUB builds new ones), so slice
// identity — same backing array, same length — is a sound cache key.
func (e *Engine) compiledFor(tr trace.Trace) *CompiledTrace {
	if e.ct != nil && len(tr) == len(e.ctTrace) &&
		(len(tr) == 0 || &tr[0] == &e.ctTrace[0]) {
		return e.ct
	}
	e.ct = Compile(tr, e.model)
	e.ctTrace = tr
	return e.ct
}
