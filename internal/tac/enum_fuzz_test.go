package tac

import (
	"testing"

	"pubtac/internal/proc"
	"pubtac/internal/trace"
)

// fuzzGeometries are the cache geometries FuzzIndexedMatchesReference picks
// from, the ones the fixed-trace oracles above use.
var fuzzGeometries = []struct{ sets, ways int }{{8, 4}, {64, 2}, {8, 2}, {8, 1}}

// fuzzMaxAccesses bounds a fuzzed trace, so one exec replays in
// milliseconds.
const fuzzMaxAccesses = 4096

// decodeTACInput reads a fuzz input. The first byte picks the policy (bits
// 0-1, an index into policyModels), the geometry (bits 2-3, into
// fuzzGeometries) and MaxExtraWays (bit 4). Every further byte, up to
// fuzzMaxAccesses, is one access: the low five bits pick one of 32 lines,
// bit 5 the cache (set: IL1, clear: DL1).
func decodeTACInput(data []byte) (trace.Trace, proc.Model, Config) {
	head := data[0]
	geom := fuzzGeometries[head>>2&3]
	m := policyModels(geom.sets, geom.ways)[head&3].model
	cfg := DefaultConfig()
	cfg.MaxExtraWays = int(head >> 4 & 1)
	data = data[1:min(len(data), 1+fuzzMaxAccesses)]
	tr := make(trace.Trace, len(data))
	for i, b := range data {
		tr[i] = trace.Access{Addr: uint64(b&31) * 32, Kind: trace.Data}
		if b&32 != 0 {
			tr[i].Kind = trace.Instr
		}
	}
	return tr, m, cfg
}

// encodeTACInput is decodeTACInput's inverse for the seed corpus: tr's
// lines must be below 32 at 32-byte lines.
func encodeTACInput(head byte, tr trace.Trace) []byte {
	out := []byte{head}
	for _, a := range tr {
		b := byte(a.Addr/32) & 31
		if a.Kind == trace.Instr {
			b |= 32
		}
		out = append(out, b)
	}
	return out
}

// FuzzIndexedMatchesReference holds TAC's indexed enumeration to its
// reference on fuzzed traces, geometries and policies: Analyze must equal
// the full-scan reference arm, and Workers 1 and 4 must give equal
// analyses.
func FuzzIndexedMatchesReference(f *testing.F) {
	for i, tc := range adversarialTraces() {
		f.Add(encodeTACInput(byte(i*5)&31, tc.tr))
	}
	// Section 3.1's sequences on its hardware (8 sets, 4 ways, random
	// placement and replacement), with and without an extra way.
	for _, letters := range []string{"ABCA", "ABCDEA", "ABCDEFA"} {
		tr := trace.Repeat(trace.FromLetters(letters, 32), 500)
		f.Add(encodeTACInput(0x00, tr))
		f.Add(encodeTACInput(0x10, tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tr, m, cfg := decodeTACInput(data)
		want, err := analyzeReference(tr, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			got, err := Analyze(tr, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameAnalysis(t, want, got)
		}
	})
}
