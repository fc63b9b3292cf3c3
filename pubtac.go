// Package pubtac is a measurement-based probabilistic timing analysis
// (MBPTA) toolkit for time-randomized cache platforms that simultaneously
// achieves full path coverage and cache-layout representativeness, as
// published in:
//
//	S. Milutinovic, J. Abella, E. Mezzetti, F. J. Cazorla.
//	"Measurement-Based Cache Representativeness on Multipath Programs".
//	DAC 2018.
//
// The library combines:
//
//   - PUB (path upper-bounding): a program transformation that inflates
//     every branch of every conditional with innocuous accesses, so any
//     path of the transformed program probabilistically upper-bounds all
//     paths of the original;
//   - TAC (time-aware address conflicts): an analysis of the program's
//     address sequence that sizes the measurement campaign so that rare,
//     high-impact random cache placements are observed;
//   - MBPTA/EVT: campaign collection, i.i.d. diagnostics and
//     exponential-tail pWCET estimation.
//
// # Quick start
//
//	bench, _ := pubtac.Benchmark("bs")
//	s := pubtac.NewSession(pubtac.WithScale(0.05))
//	res, _ := s.AnalyzePath(context.Background(), bench.Program, bench.Default())
//	fmt.Printf("pWCET@1e-12 = %.0f cycles with %d runs\n",
//	    res.PWCET(1e-12), res.R)
//
// Sessions are context-aware (campaigns are cancellable and
// deadline-bounded), report progress (WithProgress), and run whole
// campaigns concurrently: AnalyzeBatch fans benchmarks × paths out over a
// bounded worker pool, deduplicating the PUB transform per program.
// Results are deterministic at any worker count.
//
// The underlying building blocks (program IR, cache/processor simulator,
// statistics) are re-exported below for programmatic use; see the
// examples/ directory for complete applications.
package pubtac

import (
	"pubtac/internal/core"
	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/program"
	"pubtac/internal/pub"
	"pubtac/internal/tac"
)

// Config assembles platform model, MBPTA and TAC parameters.
type Config = core.Config

// PathAnalysis is the outcome of the pipeline on one pubbed path.
type PathAnalysis = core.PathAnalysis

// OriginalAnalysis is plain MBPTA on the unmodified program.
type OriginalAnalysis = core.OriginalAnalysis

// ErrIIDInadmissible is returned (wrapped) by analyses run under
// WithIIDHardFail when a sample fails its i.i.d. admissibility battery.
// Test with errors.Is.
var ErrIIDInadmissible = core.ErrIIDInadmissible

// Program is the multipath program intermediate representation.
type Program = program.Program

// Input is one input vector for a program.
type Input = program.Input

// Bench couples a Mälardalen-style program with its input vectors.
type Bench = malardalen.Benchmark

// Model describes the simulated platform (caches + latencies).
type Model = proc.Model

// PubReport summarizes a PUB transformation.
type PubReport = pub.Report

// TACAnalysis is the outcome of TAC on an address sequence.
type TACAnalysis = tac.Analysis

// Estimate is a fitted pWCET model with diagnostics.
type Estimate = mbpta.Estimate

// ShardSpec names one campaign shard for remote execution: the analysis
// config fingerprint, the program path, the campaign root and a half-open
// run range. See WithPeers.
type ShardSpec = core.ShardSpec

// ShardCollector executes campaign shards somewhere else — the client
// package implements it over a pool of pubtacd peers. See WithPeers.
type ShardCollector = core.ShardCollector

// DefaultModel returns the paper's platform model.
func DefaultModel() Model { return proc.DefaultModel() }

// Benchmark returns a fresh instance of one of the 11 Mälardalen-style
// benchmarks ("bs", "cnt", "fir", "janne", "crc", "edn", "insertsort",
// "jfdctint", "matmult", "fdct", "ns").
func Benchmark(name string) (*Bench, error) { return malardalen.Get(name) }

// Benchmarks returns all 11 benchmarks in the paper's Table 2 order.
func Benchmarks() []*Bench { return malardalen.All() }

// Transform applies PUB to a program, returning the pubbed program and a
// transformation report. The original program is not modified.
func Transform(p *Program) (*Program, PubReport, error) { return pub.Transform(p) }
