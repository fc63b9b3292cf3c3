// Package lint is pubtacvet: a go/analysis suite that mechanizes the
// repository's determinism and oracle-pairing invariants. Every result in
// this codebase is a deterministic function of (program, input, seed) —
// bit-identical at any worker count — and every fast path is shadowed by a
// reference oracle. The compiler checks none of that; these analyzers do:
//
//   - detrand: in result-affecting packages, forbid ambient randomness
//     (math/rand, crypto/rand), wall-clock reads (time.Now, time.Since) and
//     range over maps, whose iteration order is deliberately randomized by
//     the runtime. All randomness must come from the seed-derived
//     internal/rng generators; all iteration that can reach a result must
//     have a defined order.
//   - poolonly: no bare go statements outside internal/pool. All fan-out
//     must go through the index-addressed pool, which is what makes results
//     worker-count-invariant and errors deterministic.
//   - ctxpoll: exported functions taking a context.Context must keep their
//     unbounded loops cancellable — each loop either consults ctx directly
//     or hands it to a callee (the block-granularity cancellation contract
//     of the Session API).
//   - oraclepair: every declaration marked //pubtac:fastpath <name> must
//     have a matching //pubtac:reference <name> declaration in the same
//     package, and some test file must mention both identifiers — the
//     fast-path/reference-oracle discipline (Engine.UseReference and the
//     mbpta and tac reference test seams), machine-checked.
//   - sortedview: a []float64 parameter whose name contains "sorted"
//     declares an ascending-sorted-view precondition; arguments at such
//     positions must be traceable to stats.SortedCopy, stats.MergeSorted, a
//     .Sorted field/method, a producer-named call (TailSorted), a helper
//     whose every return is itself sorted, an in-place sort, or another
//     sorted parameter.
//   - benchgate: benchmarks marked //pubtac:bench are the CI-gated set;
//     the directive must match the newest committed BENCH_N.json baseline
//     bidirectionally (marked ⇒ baselined, baselined ⇒ marked, no stale
//     baseline entries).
//
// # Directives
//
// Escape hatches and markers are comments of the form "//pubtac:<verb>
// <args>", attached to the flagged line, the line above it, or (for
// fastpath/reference) the declaration's doc comment:
//
//	//pubtac:nondeterministic <reason>  escape detrand and poolonly
//	//pubtac:nopoll <reason>            escape ctxpoll
//	//pubtac:sorted <reason>            escape sortedview
//	//pubtac:fastpath <name>            mark a fast-path declaration
//	//pubtac:reference <name>           mark its reference oracle
//	//pubtac:bench                      mark a CI-gated benchmark
//
// A reason or name argument is mandatory: an escape without a recorded
// justification is itself a finding.
//
// Run the suite via the cmd/pubtacvet multichecker:
//
//	go build -o pubtacvet ./cmd/pubtacvet
//	go vet -vettool=$(pwd)/pubtacvet ./...
package lint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full pubtacvet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Detrand,
		Poolonly,
		Ctxpoll,
		Oraclepair,
		Sortedview,
		Benchgate,
	}
}
