// Package program defines a small structured intermediate representation
// for multipath programs, rich enough to express the Mälardalen benchmarks
// and to be transformed by PUB.
//
// A program is a tree of nodes: straight-line Blocks (a number of
// instructions plus an ordered list of data-access templates and an optional
// semantic action), If/Switch conditionals, counted Loops and
// condition-controlled While loops. A linker assigns concrete code addresses
// to blocks and base addresses to data symbols; an executor walks the tree
// with a concrete input, producing the memory access trace (instruction
// fetches + data accesses) that drives the cache simulator, together with a
// path signature recording every control decision taken.
//
// Data accesses are templates: a symbol plus an index expression evaluated
// against the program state. Templates carry a stable identity (ID) used by
// PUB to recognize "the same access" across branches when merging access
// patterns. Index expressions must be total: the executor clamps indices to
// the symbol's bounds, so evaluating a template from a branch that the
// original program would not have executed (a PUB-inserted innocuous load)
// is always well defined.
package program

import (
	"fmt"
	"sync/atomic"
)

// State is the mutable program state threaded through execution: integer
// scalars and integer arrays, keyed by name. Benchmarks read and write it
// from Block actions and condition expressions.
//
// Campaigns replay a compiled trace, so a program executes only once per
// analyzed path plus once per fingerprint. Within one execution, though,
// every index expression and condition reads its variables here, thousands
// of times for a loop-heavy benchmark, and programs use only a handful of
// variables with one- or two-character names. Bindings are therefore
// small linear-scan tables: over so few short names, a scan beats hashing
// the key on every lookup.
type State struct {
	ints   []intBinding
	arrays []arrBinding
}

type intBinding struct {
	name string
	val  int64
}

type arrBinding struct {
	name string
	val  []int64
}

// NewState builds an empty state.
func NewState() *State { return &State{} }

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{
		ints:   append([]intBinding(nil), s.ints...),
		arrays: make([]arrBinding, len(s.arrays)),
	}
	for i, b := range s.arrays {
		c.arrays[i] = arrBinding{name: b.name, val: append([]int64(nil), b.val...)}
	}
	return c
}

// nameEq compares binding names with a length + first-byte guard before
// the full string compare: benchmark variable names are one or two
// characters, so nearly every mismatch is decided without a memory-compare
// call.
func nameEq(a, b string) bool {
	return len(a) == len(b) && (len(a) == 0 || a[0] == b[0]) && a == b
}

// Int returns the scalar named n (0 when unset).
func (s *State) Int(n string) int64 {
	for i := range s.ints {
		if nameEq(s.ints[i].name, n) {
			return s.ints[i].val
		}
	}
	return 0
}

// SetInt sets the scalar named n.
func (s *State) SetInt(n string, v int64) {
	for i := range s.ints {
		if nameEq(s.ints[i].name, n) {
			s.ints[i].val = v
			return
		}
	}
	s.ints = append(s.ints, intBinding{name: n, val: v})
}

// Arr returns the array named n (nil when unset).
func (s *State) Arr(n string) []int64 {
	for i := range s.arrays {
		if nameEq(s.arrays[i].name, n) {
			return s.arrays[i].val
		}
	}
	return nil
}

// SetArr binds the array named n (the slice is not copied).
func (s *State) SetArr(n string, v []int64) {
	for i := range s.arrays {
		if nameEq(s.arrays[i].name, n) {
			s.arrays[i].val = v
			return
		}
	}
	s.arrays = append(s.arrays, arrBinding{name: n, val: v})
}

// Input is the initial state of one program run: the paper's "input vector".
type Input struct {
	Name   string
	Ints   map[string]int64
	Arrays map[string][]int64
}

// state materializes the input as a fresh State.
func (in Input) state() *State {
	s := NewState()
	//pubtac:nondeterministic map-to-map transfer; State lookup is by key, order never observed
	for k, v := range in.Ints {
		s.SetInt(k, v)
	}
	//pubtac:nondeterministic map-to-map transfer; State lookup is by key, order never observed
	for k, v := range in.Arrays {
		s.SetArr(k, append([]int64(nil), v...))
	}
	return s
}

// Acc is a data-access template: an access to Sym[Index(state)]. ID is the
// template's stable identity for PUB pattern merging; two templates with the
// same ID are considered the same access (e.g. `a[mid]` referenced from both
// branches of a conditional).
type Acc struct {
	ID    string
	Sym   string
	Index func(s *State) int64
}

// Scalar returns an access template for the scalar symbol sym (index 0).
// The template ID is the symbol name itself.
func Scalar(sym string) *Acc {
	return &Acc{ID: sym, Sym: sym, Index: nil}
}

// Elem returns an access template for sym[index(state)] with identity id.
func Elem(id, sym string, index func(s *State) int64) *Acc {
	return &Acc{ID: id, Sym: sym, Index: index}
}

// At returns an access template for the fixed element sym[i].
func At(sym string, i int64) *Acc {
	return &Acc{
		ID:    fmt.Sprintf("%s[%d]", sym, i),
		Sym:   sym,
		Index: func(*State) int64 { return i },
	}
}

// Node is a program tree node.
type Node interface{ isNode() }

// Block is a straight-line region: NInstr instructions followed by the data
// accesses of Accs (in order), then the semantic action Do. After linking,
// the block's instructions occupy NInstr consecutive 4-byte slots starting
// at Addr.
type Block struct {
	Label  string
	NInstr int
	Accs   []*Acc
	Do     func(s *State)

	// Addr is the code start address, assigned by Program.Link.
	Addr uint64

	// syms holds the symbol of each access template, resolved by Link so
	// the executor skips the per-access map lookup. nil entries (unknown
	// symbols) are reported at execution time.
	syms []*Symbol
}

// Seq is sequential composition.
type Seq struct {
	Nodes []Node
}

// If is a two-way conditional. Else may be nil. Cond is evaluated after the
// (optional) Head block executes. Label identifies the construct in path
// signatures and PUB diagnostics.
type If struct {
	Label string
	Head  *Block // condition-evaluation code (optional)
	Cond  func(s *State) bool
	Then  Node
	Else  Node // may be nil

	// Balanced marks PUB output: both branches carry equivalent access
	// patterns, so path signatures need not distinguish them.
	Balanced bool
}

// Switch is an n-way conditional. Selector must return a value in
// [0, len(Cases)); out-of-range values are clamped.
type Switch struct {
	Label    string
	Head     *Block
	Selector func(s *State) int
	Cases    []Node
	Balanced bool
}

// Loop is a counted loop: Body executes Bound(state) times, clamped to
// [0, MaxBound]. Head, when set, executes before each iteration's body and
// once more on exit (the loop test). MaxBound is the static worst-case
// iteration count the analysis relies on ("input vectors triggering the
// highest loop bounds").
type Loop struct {
	Label    string
	Head     *Block
	Bound    func(s *State) int
	MaxBound int
	Body     Node
}

// While is a condition-controlled loop: Body repeats while Cond holds, at
// most MaxBound times. Head, when set, executes before each condition
// evaluation.
type While struct {
	Label    string
	Head     *Block
	Cond     func(s *State) bool
	MaxBound int
	Body     Node
}

func (*Block) isNode()  {}
func (*Seq) isNode()    {}
func (*If) isNode()     {}
func (*Switch) isNode() {}
func (*Loop) isNode()   {}
func (*While) isNode()  {}

// Symbol is a data object: Len elements of ElemBytes each. Base is assigned
// by Program.Link.
type Symbol struct {
	Name      string
	ElemBytes int
	Len       int
	Base      uint64
}

// Program couples a tree with its data symbols and address-space layout.
type Program struct {
	Name     string
	Root     Node
	Symbols  []*Symbol
	CodeBase uint64
	DataBase uint64

	symIndex map[string]*Symbol
	blocks   []*Block
	linked   bool

	// traceHint remembers the longest trace a previous Exec produced, so
	// later executions allocate the trace in one shot. Atomic because the
	// batch engine executes paths of one program concurrently; the value is
	// only a capacity hint, so races are harmless.
	traceHint atomic.Int64
}

// New creates an unlinked program with the default address space layout
// (code at 0x1000, data at 0x100000).
func New(name string, root Node, symbols ...*Symbol) *Program {
	return &Program{
		Name:     name,
		Root:     root,
		Symbols:  symbols,
		CodeBase: 0x1000,
		DataBase: 0x100000,
	}
}

// Symbol returns the symbol named n, or nil.
func (p *Program) Symbol(n string) *Symbol {
	if p.symIndex == nil {
		return nil
	}
	return p.symIndex[n]
}

// Blocks returns the blocks collected by Link, in layout order.
func (p *Program) Blocks() []*Block { return p.blocks }

// Linked reports whether Link has been called.
func (p *Program) Linked() bool { return p.linked }
