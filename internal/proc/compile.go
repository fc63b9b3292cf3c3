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
// of a run. Compilation hoists all of that out of the run loop: the trace
// is projected onto per-cache dense line IDs once, and the batched replay
// (batch.go) evaluates the placement of each *distinct* line once per run,
// replaying the ID stream against flat ID-indexed set state. Replacement
// victims and miss jitter are drawn from the same generators in the same
// order as the reference replay, so cycles are bit-identical; the golden
// and equivalence tests in golden_test.go, compile_test.go and
// batch_test.go enforce this.

// dataBit marks a stream token as a DL1 access; the low bits are the dense
// line ID within that cache.
const dataBit = 1 << 31

// invalidID is the sentinel stored in compiled set state for an empty way,
// replacing the reference engine's separate valid[] array. Line IDs are
// dense non-negative ints, so a single comparison covers both "occupied by
// another line" and "empty".
const invalidID = -1

// CompiledTrace is a trace pre-projected onto the line geometry of a
// platform model: per-cache distinct line addresses plus a stream of dense
// line IDs. Compile once, replay many times; a CompiledTrace is immutable
// and may be shared across engines and goroutines.
type CompiledTrace struct {
	il1    compiledSide
	dl1    compiledSide
	stream []uint32
}

// compiledSide is the per-cache projection: the distinct line addresses in
// first-appearance order (the dense ID of a line is its index), plus the
// geometry it was compiled against.
type compiledSide struct {
	lines []uint64
	sets  int
	ways  int
	shift uint // byte-address-to-line shift the projection used
}

// Len returns the number of accesses in the compiled stream.
func (ct *CompiledTrace) Len() int { return len(ct.stream) }

// DistinctLines returns the number of distinct IL1 and DL1 lines.
func (ct *CompiledTrace) DistinctLines() (il1, dl1 int) {
	return len(ct.il1.lines), len(ct.dl1.lines)
}

// SideLines returns the distinct line addresses of one cache side in
// first-appearance order — the dense ID of a line is its index. The slice
// is the compilation's own and must be treated as read-only; package tac
// builds its posting-list index on these IDs instead of re-projecting the
// trace through a map of its own.
func (ct *CompiledTrace) SideLines(k trace.Kind) []uint64 {
	if k == trace.Instr {
		return ct.il1.lines
	}
	return ct.dl1.lines
}

// SideIDs appends the dense line IDs of one cache side, in stream order,
// to dst and returns it — the side's line sequence in the ID space of
// SideLines.
func (ct *CompiledTrace) SideIDs(k trace.Kind, dst []int32) []int32 {
	if k == trace.Instr {
		for _, tok := range ct.stream {
			if tok&dataBit == 0 {
				dst = append(dst, int32(tok))
			}
		}
		return dst
	}
	for _, tok := range ct.stream {
		if tok&dataBit != 0 {
			dst = append(dst, int32(tok&^dataBit))
		}
	}
	return dst
}

// Compile projects tr onto the cache geometry of m. The result replays
// bit-identically to the reference engine on any engine built for the same
// model.
func Compile(tr trace.Trace, m Model) *CompiledTrace {
	ilShift, dlShift := m.IL1.LineShift(), m.DL1.LineShift()
	ct := &CompiledTrace{
		il1:    compiledSide{sets: m.IL1.Sets, ways: m.IL1.Ways, shift: ilShift},
		dl1:    compiledSide{sets: m.DL1.Sets, ways: m.DL1.Ways, shift: dlShift},
		stream: make([]uint32, len(tr)),
	}
	ilIDs := make(map[uint64]uint32)
	dlIDs := make(map[uint64]uint32)
	for i, a := range tr {
		if a.Kind == trace.Instr {
			line := a.Addr >> ilShift
			id, ok := ilIDs[line]
			if !ok {
				id = uint32(len(ct.il1.lines))
				ilIDs[line] = id
				ct.il1.lines = append(ct.il1.lines, line)
			}
			ct.stream[i] = id
		} else {
			line := a.Addr >> dlShift
			id, ok := dlIDs[line]
			if !ok {
				id = uint32(len(ct.dl1.lines))
				dlIDs[line] = id
				ct.dl1.lines = append(ct.dl1.lines, line)
			}
			ct.stream[i] = id | dataBit
		}
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
