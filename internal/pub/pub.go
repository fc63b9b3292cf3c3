package pub

import (
	"fmt"

	"pubtac/internal/program"
)

// Report summarizes a PUB transformation.
type Report struct {
	Constructs       int // conditionals balanced
	InsertedAccesses int // innocuous data accesses inserted (across branches)
	InsertedInstrs   int // padding instructions inserted (across branches)
	InsertedSubtrees int // opaque subtrees (loops/conditionals) cloned as padding
	OrigCodeBytes    int
	PubbedCodeBytes  int
}

// CodeGrowth returns the code size ratio pubbed/original.
func (r Report) CodeGrowth() float64 {
	if r.OrigCodeBytes == 0 {
		return 1
	}
	return float64(r.PubbedCodeBytes) / float64(r.OrigCodeBytes)
}

// Transform applies PUB to p and returns the linked pubbed program together
// with a transformation report. The original program is not modified; the
// pubbed program shares no mutable structure with it. Data symbols keep
// their layout (PUB only inflates code), while pubbed code is re-linked at
// fresh addresses — inserted instructions are genuinely new code lines.
func Transform(p *program.Program) (*program.Program, Report, error) {
	if !p.Linked() {
		if err := p.Link(); err != nil {
			return nil, Report{}, err
		}
	}
	rep := Report{OrigCodeBytes: p.CodeBytes()}

	t := &transformer{rep: &rep}
	root := t.node(program.Clone(p.Root))

	syms := make([]*program.Symbol, len(p.Symbols))
	for i, s := range p.Symbols {
		c := *s
		syms[i] = &c
	}
	q := program.New(p.Name+".pub", root, syms...)
	q.CodeBase = p.CodeBase
	q.DataBase = p.DataBase
	if err := q.Link(); err != nil {
		return nil, Report{}, fmt.Errorf("pub: linking pubbed program: %w", err)
	}
	rep.PubbedCodeBytes = q.CodeBytes()
	return q, rep, nil
}

type transformer struct {
	rep *Report
	seq int // counter for padding block labels
}

// node rewrites a (cloned) subtree bottom-up, balancing every conditional.
func (t *transformer) node(n program.Node) program.Node {
	switch v := n.(type) {
	case nil:
		return nil
	case *program.Block:
		return v
	case *program.Seq:
		for i, c := range v.Nodes {
			v.Nodes[i] = t.node(c)
		}
		return v
	case *program.Loop:
		v.Body = t.node(v.Body)
		return v
	case *program.While:
		v.Body = t.node(v.Body)
		return v
	case *program.Pad:
		return v
	case *program.If:
		v.Then = t.node(v.Then)
		v.Else = t.node(v.Else)
		branches := []program.Node{v.Then, v.Else}
		balanced := t.balance(v.Label, branches)
		v.Then, v.Else = balanced[0], balanced[1]
		v.Balanced = true
		t.rep.Constructs++
		return v
	case *program.Switch:
		for i, c := range v.Cases {
			v.Cases[i] = t.node(c)
		}
		balanced := t.balance(v.Label, v.Cases)
		copy(v.Cases, balanced)
		v.Balanced = true
		t.rep.Constructs++
		return v
	default:
		panic(fmt.Sprintf("pub: unknown node type %T", n))
	}
}

// balance rewrites each branch so all of them carry the merged (SCS) access
// pattern of the construct. nil branches are treated as empty and come back
// as pure padding.
func (t *transformer) balance(label string, branches []program.Node) []program.Node {
	sigs := make([][]item, len(branches))
	for i, b := range branches {
		sigs[i] = flatten(b)
	}
	merged := mergeAll(sigs)
	out := make([]program.Node, len(branches))
	for i := range branches {
		out[i] = t.rebuild(label, i, sigs[i], merged)
	}
	return out
}

// rebuild compiles branch k's balanced body from the merged item stream, in
// exact merged order, so that every branch of the construct emits the same
// merged access pattern (this is what makes every pubbed branch a
// supersequence of every original branch). Own items — identified by greedy
// subsequence matching, which always succeeds because the SCS contains the
// branch — are re-assembled into fresh blocks that keep the original
// instruction slots, data accesses and semantic actions in order; foreign
// items become innocuous padding: fresh instruction slots (inflated code at
// new addresses), innocuous loads (one instruction + the data access), or
// Pad-wrapped clones of opaque subtrees executed at their worst-case bound
// without semantic effects.
func (t *transformer) rebuild(label string, k int, own, merged []item) program.Node {
	b := &branchBuilder{t: t, label: label, k: k}
	j := 0
	for _, it := range merged {
		if j < len(own) && own[j].equal(it) {
			b.ownItem(own[j])
			j++
			continue
		}
		b.foreignItem(it)
	}
	if j != len(own) {
		panic(fmt.Sprintf("pub: merged signature of %q is not a supersequence of branch %d (%d/%d items matched)",
			label, k, j, len(own)))
	}
	return b.finish()
}

// branchBuilder accumulates IR nodes for one rebuilt branch. It groups
// consecutive instruction and data items into blocks, respecting the
// executor's emission order (a block emits all its instructions, then its
// data accesses, then its action): an instruction item arriving after data
// items, or a semantic action, cuts the current block.
type branchBuilder struct {
	t     *transformer
	label string
	k     int

	out  []program.Node
	cur  *program.Block
	seen int // pieces emitted, for labels
}

func (b *branchBuilder) block() *program.Block {
	if b.cur == nil {
		b.seen++
		b.cur = &program.Block{Label: fmt.Sprintf("pub.%s.b%d.p%d", b.label, b.k, b.seen)}
	}
	return b.cur
}

func (b *branchBuilder) flush() {
	if b.cur != nil && (b.cur.NInstr > 0 || len(b.cur.Accs) > 0 || b.cur.Do != nil) {
		b.out = append(b.out, b.cur)
	}
	b.cur = nil
}

func (b *branchBuilder) addInstr() {
	if b.cur != nil && len(b.cur.Accs) > 0 {
		b.flush() // keep emission order: no instr after data within a block
	}
	b.block().NInstr++
}

func (b *branchBuilder) addAcc(a *program.Acc) {
	b.block().Accs = append(b.block().Accs, a)
}

func (b *branchBuilder) ownItem(it item) {
	switch it.kind {
	case instrItem:
		b.addInstr()
	case dataItem:
		b.addAcc(it.acc)
	case macroItem:
		b.flush()
		b.out = append(b.out, it.node)
		return
	}
	if it.last && it.src.Do != nil {
		// The source block's semantic action runs once, after its last
		// item, exactly as in the original program.
		b.block().Do = it.src.Do
		b.flush()
	}
}

func (b *branchBuilder) foreignItem(it item) {
	switch it.kind {
	case instrItem:
		b.addInstr()
		b.t.rep.InsertedInstrs++
	case dataItem:
		// The innocuous load: one instruction performing one data access.
		b.addInstr()
		b.addAcc(it.acc)
		b.t.rep.InsertedInstrs++
		b.t.rep.InsertedAccesses++
	case macroItem:
		b.flush()
		b.t.rep.InsertedSubtrees++
		b.out = append(b.out, &program.Pad{Inner: program.Clone(it.node)})
	}
}

func (b *branchBuilder) finish() program.Node {
	b.flush()
	if len(b.out) == 1 {
		return b.out[0]
	}
	return &program.Seq{Nodes: b.out}
}
