package proc

import (
	"pubtac/internal/cache"
	"pubtac/internal/trace"
)

// This file implements trace compilation, the front half of the compiled
// replay. A trace is replayed 10^5-10^6 times per campaign, and the
// reference replay pays a byte-address shift and a Mix64 placement hash on
// every access, although under parametric random placement a line's set is
// fixed for a run. Compilation projects each cache's accesses once onto
// that cache's dense line IDs, so the batched replay (batch.go) places each
// *distinct* line once per run, and each cache is compiled and replayed on
// its own: IL1 and DL1 share nothing within a run but the cycle sum.
//
// Each cache also gets posting lists: per line, the ascending positions of
// its accesses in the cache's ID sequence, at 4 bytes per access. With
// them the replay of random replacement jumps from miss to miss instead of
// walking every access, and package tac's index and pinned replay read the
// same lists. Each line's first and last access are also kept side by side,
// so that placement can tell whether a line arriving at a full set meets a
// line that is still live. Results are bit-identical to the reference
// replay; the tests in golden_test.go, compile_test.go and batch_test.go
// enforce this.

// CompiledTrace is a trace pre-projected onto the line geometry of a
// platform model: per cache, its distinct line addresses, its accesses as
// dense line IDs and each line's posting list. Compile once, replay many
// times; a CompiledTrace is immutable and may be shared across engines and
// goroutines.
type CompiledTrace struct {
	il1 compiledSide
	dl1 compiledSide
}

// compiledSide is the per-cache projection: the distinct line addresses in
// first-appearance order (the dense ID of a line is its index), the cache's
// accesses in trace order as dense IDs, the posting lists, each line's
// first and last access, and the geometry it was compiled against.
type compiledSide struct {
	lines []uint64
	ids   []int32
	off   []int32    // line id's positions in ids are post[off[id]:off[id+1]]
	post  []int32    // concatenated posting lists, each ascending
	span  []lineSpan // per line id: post[off[id]] and post[off[id+1]-1]
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

// lineSpan is a line's first and last access, as positions in its cache's
// ID sequence.
type lineSpan struct{ first, last int32 }

// Len returns the number of accesses in the compiled trace.
func (ct *CompiledTrace) Len() int { return len(ct.il1.ids) + len(ct.dl1.ids) }

// SideLines returns the distinct line addresses of one cache side in
// first-appearance order — the dense ID of a line is its index. The slice
// is the compilation's own and must be treated as read-only; package tac
// builds its posting-list index on these IDs instead of re-projecting the
// trace through a map of its own.
func (ct *CompiledTrace) SideLines(k trace.Kind) []uint64 { return ct.side(k).lines }

// SidePostings returns the posting lists of one cache side: the accesses of
// line id (in the ID space of SideLines) sit at the ascending positions
// post[off[id]:off[id+1]] of the side's access sequence. Both slices are
// the compilation's own and must be treated as read-only.
func (ct *CompiledTrace) SidePostings(k trace.Kind) (off, post []int32) {
	cs := ct.side(k)
	return cs.off, cs.post
}

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
	ct.il1.index()
	ct.dl1.index()
	return ct
}

// index builds the side's posting lists from its ID sequence: a counting
// pass sizes each list, and a second pass fills each list through its
// start offset, which leaves every offset at the next list's start until
// one shift puts them back. Each line's span is its list's ends.
func (cs *compiledSide) index() {
	cs.off = make([]int32, len(cs.lines)+1)
	for _, id := range cs.ids {
		cs.off[id+1]++
	}
	for id := range cs.lines {
		cs.off[id+1] += cs.off[id]
	}
	cs.post = make([]int32, len(cs.ids))
	for pos, id := range cs.ids {
		cs.post[cs.off[id]] = int32(pos)
		cs.off[id]++
	}
	copy(cs.off[1:], cs.off)
	cs.off[0] = 0
	cs.span = make([]lineSpan, len(cs.lines))
	for id := range cs.span {
		cs.span[id] = lineSpan{cs.post[cs.off[id]], cs.post[cs.off[id+1]-1]}
	}
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
