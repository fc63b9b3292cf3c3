package pubtac

import (
	"context"
	"fmt"
	"sync"

	"pubtac/internal/core"
	"pubtac/internal/malardalen"
)

// Session is the context-aware entry point to the PUB+TAC pipeline. One
// session owns a pipeline configuration and a simulation worker budget and
// runs whole campaigns — single paths, multipath programs, or batches of
// benchmarks — concurrently, cancellably and reproducibly.
//
//	s := pubtac.NewSession(pubtac.WithScale(0.05))
//	res, err := s.AnalyzePath(ctx, bench.Program, bench.Default())
//
// A Session is safe for concurrent use; analyses issued in parallel share
// nothing but the configuration. Results are deterministic functions of
// (program, input, seed) — worker counts and batching never change them.
type Session struct {
	cfg     core.Config
	workers int
	an      *core.Analyzer

	mu sync.Mutex // serializes progress delivery to the user's callback
}

// NewSession builds a session from functional options. With no options the
// session reproduces the paper's evaluation setup at full scale on
// GOMAXPROCS workers.
func NewSession(opts ...Option) *Session {
	st := defaultSettings()
	for _, opt := range opts {
		opt(st)
	}
	s := &Session{}
	cfg := st.build()
	s.workers = st.workers
	if st.progress != nil {
		sink := st.progress
		cfg.Progress = func(ev ProgressEvent) {
			s.mu.Lock()
			defer s.mu.Unlock()
			sink(ev)
		}
	}
	s.cfg = cfg
	s.an = core.New(cfg)
	return s
}

// Config returns the session's resolved pipeline configuration.
func (s *Session) Config() Config { return s.cfg }

// Workers returns the session's simulation worker budget (0 = GOMAXPROCS).
func (s *Session) Workers() int { return s.workers }

// AnalyzePath runs the full pipeline (Figure 3) on one input vector: PUB
// transforms the program, TAC sizes the campaign from the pubbed path's
// address sequence, and MBPTA/EVT turns max(R_pub, R_tac) measurements into
// a pWCET curve upper-bounding every path of the original program.
// Cancelling ctx stops the campaign promptly with ctx.Err(). It is
// AnalyzeMultiPath over in alone, with the session's whole worker budget.
func (s *Session) AnalyzePath(ctx context.Context, p *Program, in Input) (*Result, error) {
	mr, err := s.AnalyzeMultiPath(ctx, p, []Input{in})
	if err != nil {
		return nil, err
	}
	return mr.Results[0], nil
}

// AnalyzeOriginal measures the unmodified program with plain MBPTA: the
// paper's R_orig baseline.
func (s *Session) AnalyzeOriginal(ctx context.Context, p *Program, in Input) (*OriginalAnalysis, error) {
	return s.an.AnalyzeOriginalCtx(ctx, p, in, 0)
}

// AnalyzeMultiPath runs the pipeline on every input vector concurrently
// (bounded by the session's worker budget) and aggregates per Corollary 2.
func (s *Session) AnalyzeMultiPath(ctx context.Context, p *Program, inputs []Input) (*MultiResult, error) {
	batch, err := s.AnalyzeBatch(ctx, []Job{{Program: p, Inputs: inputs}})
	if err != nil {
		return nil, err
	}
	return batch.Jobs[0], nil
}

// Job names one program and the input vectors (pubbed paths) to analyze in
// a batch.
type Job struct {
	Program *Program
	Inputs  []Input
}

// BenchmarkJobs builds batch jobs for the named Mälardalen benchmarks with
// their default input vectors; with no names it covers all 11 benchmarks in
// Table 2 order.
func BenchmarkJobs(names ...string) ([]Job, error) {
	if len(names) == 0 {
		names = append([]string(nil), malardalen.Order...)
	}
	jobs := make([]Job, 0, len(names))
	for _, n := range names {
		b, err := malardalen.Get(n)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Program: b.Program, Inputs: []Input{b.Default()}})
	}
	return jobs, nil
}

// AnalyzeBatch fans every (job, input) pair out over the session's worker
// pool: up to Workers paths run concurrently, each campaign using its share
// of the budget, and the PUB transform runs once per distinct program. The
// first failing path cancels the rest; cancelling ctx stops all running
// campaigns promptly. Results are bit-identical to analyzing each path
// serially with the same configuration.
func (s *Session) AnalyzeBatch(ctx context.Context, jobs []Job) (*BatchResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("pubtac: empty batch")
	}
	cjobs := make([]core.Job, len(jobs))
	for i, j := range jobs {
		cjobs[i] = core.Job{Program: j.Program, Inputs: j.Inputs}
	}
	analyses, err := s.an.AnalyzeBatch(ctx, cjobs, s.workers)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{SchemaVersion: ResultSchemaVersion, Jobs: make([]*MultiResult, len(analyses))}
	for i, paths := range analyses {
		mr := &MultiResult{SchemaVersion: ResultSchemaVersion, Results: make([]*Result, len(paths))}
		for k, pa := range paths {
			mr.Results[k] = newResult(pa)
		}
		out.Jobs[i] = mr
	}
	return out, nil
}
