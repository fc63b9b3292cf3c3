// Batch engine: bounded-parallel fan-out of PUB+TAC analyses over
// paths × programs, the one pipeline of a pubbed path. One pool drives the
// whole batch; the PUB transform is performed once per distinct program no
// matter how many of its paths are analyzed. Campaign roots depend only on
// (program, input, SeedSalt) (Config.CampaignRoot), so a path's result is
// bit-identical in any batch and at any worker count.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"pubtac/internal/pool"
	"pubtac/internal/program"
	"pubtac/internal/pub"
)

// Job names one program and the input vectors (pubbed paths) to analyze.
type Job struct {
	Program *program.Program
	Inputs  []program.Input
}

// WorkerBudget resolves a worker count to a concrete parallelism budget:
// workers when positive, else GOMAXPROCS. The Session (through
// AnalyzeBatch) and the experiment generators budget through it alike.
func WorkerBudget(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// xform caches one program's PUB transform for the duration of a batch.
type xform struct {
	once   sync.Once
	pubbed *program.Program
	rep    pub.Report
	err    error
}

// AnalyzeBatch runs the pipeline on every (job, input) pair, fanning the
// paths out over a bounded pool. workers caps the total simulation
// parallelism: up to that many paths run concurrently, and each path's
// campaign uses its share of the remaining budget, so the machine is
// saturated without oversubscription; a one-path batch hands its path the
// whole budget. workers <= 0 falls back to cfg.MBPTA.Workers, then
// GOMAXPROCS. The result is indexed [job][input], mirroring the jobs slice.
// The first failing path cancels the rest; a cancelled ctx stops all
// running campaigns promptly.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, jobs []Job, workers int) ([][]*PathAnalysis, error) {
	if err := a.validateModel(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = a.cfg.MBPTA.Workers
	}
	workers = WorkerBudget(workers)
	total := 0
	for i, j := range jobs {
		if j.Program == nil {
			return nil, fmt.Errorf("core: batch job %d has no program", i)
		}
		if len(j.Inputs) == 0 {
			return nil, fmt.Errorf("core: batch job %d (%s) has no inputs", i, j.Program.Name)
		}
		total += len(j.Inputs)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	outer, inner := pool.SplitWorkers(workers, total)

	// Deduplicate the PUB transform per distinct program: the first path of
	// a program to be scheduled performs it, the others reuse it.
	xforms := make(map[*program.Program]*xform, len(jobs))
	for _, j := range jobs {
		if xforms[j.Program] == nil {
			xforms[j.Program] = &xform{}
		}
	}

	out := make([][]*PathAnalysis, len(jobs))
	g, ctx := pool.WithContext(ctx)
	g.SetLimit(outer)
	for ji := range jobs {
		job := jobs[ji]
		out[ji] = make([]*PathAnalysis, len(job.Inputs))
		x := xforms[job.Program]
		for ii := range job.Inputs {
			ji, ii, in := ji, ii, job.Inputs[ii]
			g.Go(func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				x.once.Do(func() { x.pubbed, x.rep, x.err = pub.Transform(job.Program) })
				if x.err != nil {
					return fmt.Errorf("core: PUB failed on %s: %w", job.Program.Name, x.err)
				}
				pa, err := a.analyzeOn(ctx, x.pubbed, job.Program.Name, in, x.rep, inner)
				if err != nil {
					return err
				}
				out[ji][ii] = pa
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}
