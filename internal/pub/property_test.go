package pub

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pubtac/internal/program"
	"pubtac/internal/rng"
	"pubtac/internal/trace"
)

// randProgram generates a random program tree with nested conditionals,
// switches and loops over a shared symbol, for property testing the PUB
// transform. Control decisions read the input scalars c0..c3.
type randGen struct {
	r     *rng.Xoshiro256
	label int
	depth int
}

func (g *randGen) nextLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

func (g *randGen) block() *program.Block {
	n := 1 + g.r.Intn(6)
	var accs []*program.Acc
	for i := g.r.Intn(4); i > 0; i-- {
		idx := int64(g.r.Intn(8))
		accs = append(accs, program.At("m", idx))
	}
	return &program.Block{Label: g.nextLabel("b"), NInstr: n, Accs: accs}
}

func (g *randGen) node() program.Node {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 3 {
		return g.block()
	}
	switch g.r.Intn(6) {
	case 0, 1:
		return g.block()
	case 2:
		return &program.Seq{Nodes: []program.Node{g.node(), g.node()}}
	case 3:
		sel := g.r.Intn(4)
		return &program.If{
			Label: g.nextLabel("if"),
			Cond: func(s *program.State) bool {
				return s.Int(fmt.Sprintf("c%d", sel)) > 0
			},
			Then: g.node(),
			Else: g.maybeNode(),
		}
	case 4:
		sel := g.r.Intn(4)
		cases := make([]program.Node, 2+g.r.Intn(2))
		for i := range cases {
			cases[i] = g.node()
		}
		return &program.Switch{
			Label: g.nextLabel("sw"),
			Selector: func(s *program.State) int {
				return int(s.Int(fmt.Sprintf("c%d", sel)))
			},
			Cases: cases,
		}
	default:
		bound := 1 + g.r.Intn(3)
		return &program.Loop{
			Label:    g.nextLabel("lp"),
			Bound:    func(*program.State) int { return bound },
			MaxBound: bound,
			Body:     g.node(),
		}
	}
}

func (g *randGen) maybeNode() program.Node {
	if g.r.Intn(3) == 0 {
		return nil
	}
	return g.node()
}

// inputsOver enumerates a few input vectors over the control scalars.
func inputsOver() []program.Input {
	var ins []program.Input
	for _, c0 := range []int64{0, 1} {
		for _, c1 := range []int64{0, 1} {
			for _, c2 := range []int64{0, 2} {
				ins = append(ins, program.Input{
					Name: fmt.Sprintf("i%d%d%d", c0, c1, c2),
					Ints: map[string]int64{"c0": c0, "c1": c1, "c2": c2, "c3": 1},
					Arrays: map[string][]int64{
						"m": {1, 2, 3, 4, 5, 6, 7, 8},
					},
				})
			}
		}
	}
	return ins
}

// TestTransformPropertyRandomPrograms checks, over many random programs,
// the core PUB invariants:
//
//  1. for every input, the original data trace is a subsequence of the
//     pubbed data trace (only insertions happened, order preserved);
//  2. the pubbed trace is never shorter than the original trace;
//  3. data access patterns coincide across all paths of the pubbed program
//     at equal loop bounds (full balance).
func TestTransformPropertyRandomPrograms(t *testing.T) {
	const trials = 60
	inputs := inputsOver()
	for trial := 0; trial < trials; trial++ {
		g := &randGen{r: rng.New(uint64(1000 + trial))}
		sym := &program.Symbol{Name: "m", ElemBytes: 32, Len: 8}
		p := program.New(fmt.Sprintf("rand%d", trial), g.node(), sym)
		if err := p.Link(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q, _, err := Transform(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var dataLens []int
		for _, in := range inputs {
			orig, err := p.Exec(in)
			if err != nil {
				t.Fatalf("trial %d input %s: %v", trial, in.Name, err)
			}
			pubd, err := q.Exec(in)
			if err != nil {
				t.Fatalf("trial %d input %s (pubbed): %v", trial, in.Name, err)
			}
			od := orig.Trace.Filter(trace.Data)
			pd := pubd.Trace.Filter(trace.Data)
			if !od.IsSubsequenceOf(pd) {
				t.Fatalf("trial %d input %s: original data trace not a subsequence\norig: %v\npub:  %v",
					trial, in.Name, od, pd)
			}
			if len(pubd.Trace) < len(orig.Trace) {
				t.Fatalf("trial %d input %s: pubbed trace shorter", trial, in.Name)
			}
			dataLens = append(dataLens, len(pd))
		}
		// All counted loops have fixed bounds in this generator, so every
		// path of the pubbed program performs the same number of data
		// accesses.
		for _, l := range dataLens[1:] {
			if l != dataLens[0] {
				t.Fatalf("trial %d: pubbed data access counts differ across paths: %v",
					trial, dataLens)
			}
		}
	}
}

// TestTransformPropertyCrossPathDominance verifies the cross-branch
// requirement on a sample of random programs: the data trace of ANY
// original path is a subsequence of the pubbed trace of ANY OTHER path
// (at the template level this is what Equation 1 needs; with fixed-index
// templates it holds at the address level too).
func TestTransformPropertyCrossPathDominance(t *testing.T) {
	const trials = 25
	inputs := inputsOver()
	for trial := 0; trial < trials; trial++ {
		g := &randGen{r: rng.New(uint64(9000 + trial))}
		sym := &program.Symbol{Name: "m", ElemBytes: 32, Len: 8}
		p := program.New(fmt.Sprintf("xrand%d", trial), g.node(), sym)
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		q, _, err := Transform(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, inOrig := range inputs[:4] {
			od := p.MustExec(inOrig).Trace.Filter(trace.Data)
			for _, inPub := range inputs[:4] {
				pd := q.MustExec(inPub).Trace.Filter(trace.Data)
				if !od.IsSubsequenceOf(pd) {
					t.Fatalf("trial %d: orig path %s not covered by pubbed path %s\norig: %v\npub:  %v",
						trial, inOrig.Name, inPub.Name, od, pd)
				}
			}
		}
	}
}

// fuzzVector is the fuzz encoding of one input vector: c0..c3 as
// little-endian int64s.
const fuzzVector = 4 * 8

// fuzzInputs decodes up to 8 input vectors from data, fuzzVector bytes
// each; a trailing partial vector is dropped. Any int64 is a valid control
// value: conditionals test c > 0 and the executor clamps switch selectors
// to the case range.
func fuzzInputs(data []byte) []program.Input {
	var ins []program.Input
	for k := 0; k < 8 && len(data) >= fuzzVector; k++ {
		ints := map[string]int64{}
		for c := 0; c < 4; c++ {
			ints[fmt.Sprintf("c%d", c)] = int64(binary.LittleEndian.Uint64(data[8*c:]))
		}
		ins = append(ins, program.Input{
			Name:   fmt.Sprintf("f%d", k),
			Ints:   ints,
			Arrays: map[string][]int64{"m": {1, 2, 3, 4, 5, 6, 7, 8}},
		})
		data = data[fuzzVector:]
	}
	return ins
}

// FuzzTransformDominates fuzzes PUB on generated programs: the fuzz input
// picks randGen's seed and up to 8 input vectors over c0..c3 (fuzzInputs).
// For the pubbed program it checks that
//
//  1. on every input the pubbed trace is not shorter than the original;
//  2. every original path's data trace is a subsequence of every pubbed
//     path's data trace, its own path's included: every generated loop runs
//     its MaxBound, so every pubbed path covers every original one;
//  3. the pubbed program performs the same number of data accesses on every
//     input.
//
// The seeds are the two property tests' programs (trials 1000–1004 and
// 9000–9004) on inputsOver's eight vectors.
func FuzzTransformDominates(f *testing.F) {
	var vectors []byte
	for _, in := range inputsOver() {
		for c := 0; c < 4; c++ {
			vectors = binary.LittleEndian.AppendUint64(vectors, uint64(in.Ints[fmt.Sprintf("c%d", c)]))
		}
	}
	for _, trial := range []uint64{1000, 1001, 1002, 1003, 1004, 9000, 9001, 9002, 9003, 9004} {
		f.Add(trial, vectors)
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		ins := fuzzInputs(data)
		if len(ins) == 0 {
			return
		}
		g := &randGen{r: rng.New(seed)}
		sym := &program.Symbol{Name: "m", ElemBytes: 32, Len: 8}
		p := program.New("fuzz", g.node(), sym)
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		q, _, err := Transform(p)
		if err != nil {
			t.Fatal(err)
		}
		origs := make([]trace.Trace, len(ins))
		pubs := make([]trace.Trace, len(ins))
		for i, in := range ins {
			orig, err := p.Exec(in)
			if err != nil {
				t.Fatalf("seed %d input %v: %v", seed, in.Ints, err)
			}
			pubd, err := q.Exec(in)
			if err != nil {
				t.Fatalf("seed %d input %v (pubbed): %v", seed, in.Ints, err)
			}
			if len(pubd.Trace) < len(orig.Trace) {
				t.Fatalf("seed %d input %v: pubbed trace shorter (%d < %d)", seed, in.Ints, len(pubd.Trace), len(orig.Trace))
			}
			origs[i], pubs[i] = orig.Trace.Filter(trace.Data), pubd.Trace.Filter(trace.Data)
			if len(pubs[i]) != len(pubs[0]) {
				t.Fatalf("seed %d: pubbed data access counts differ: %d on %v, %d on %v",
					seed, len(pubs[0]), ins[0].Ints, len(pubs[i]), in.Ints)
			}
		}
		for i, od := range origs {
			for j, pd := range pubs {
				if !od.IsSubsequenceOf(pd) {
					t.Fatalf("seed %d: original path on %v not covered by pubbed path on %v\norig: %v\npub:  %v",
						seed, ins[i].Ints, ins[j].Ints, od, pd)
				}
			}
		}
	})
}
