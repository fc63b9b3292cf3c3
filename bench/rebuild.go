package bench

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"pubtac"
	"pubtac/internal/core"
	"pubtac/internal/evt"
	"pubtac/internal/mbpta"
	"pubtac/internal/pool"
	"pubtac/internal/proc"
	"pubtac/internal/program"
	"pubtac/internal/pub"
	"pubtac/internal/stats"
	"pubtac/internal/tac"
	"pubtac/internal/trace"
)

// resultProbes are the exceedance probabilities of a serialized pWCET curve
// (one per decade down to 10^-12, as pubtac.Result carries them).
var resultProbes = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12}

// streamChunk is mbpta's streaming collection chunk (8 collect blocks of 8
// proc.BatchK runs). A streaming summary's battery depends on the chunking,
// so the rebuild must push in the same chunks.
const streamChunk = 64 * proc.BatchK

// rebuild is the Session pipeline rebuilt from the layer calls it makes, on
// one worker, with a span around each call. Its results must equal the
// Session's byte for byte; callers check that.
type rebuild struct {
	tr  *Tracer
	op  int
	cfg core.Config
	// fabric, when set, collects every campaign range in shards through it,
	// as a Session WithPeers does; shards records each accepted shard for
	// the direct calls that replay it (sharded.go).
	fabric pubtac.ShardCollector
	shards []shardRun
}

// shardRun is one shard the fabric delivered, with the campaign it belongs
// to.
type shardRun struct {
	c    *campaign
	spec pubtac.ShardSpec
	runs []float64
}

// batch is Session.AnalyzeBatch: PUB once per program, then every path. Its
// spans hang under one "core" span whose parent is Root for an op and
// Direct for a direct call.
func (r *rebuild) batch(ctx context.Context, parent int, jobs []pubtac.Job) (*pubtac.BatchResult, []byte, error) {
	root := r.tr.Begin(r.op, parent)
	defer r.tr.End(root, "core")
	br := &pubtac.BatchResult{SchemaVersion: pubtac.ResultSchemaVersion}
	for _, j := range jobs {
		sp := r.tr.Begin(r.op, root)
		pubbed, rep, err := pub.Transform(j.Program)
		r.tr.End(sp, "pub.transform")
		if err != nil {
			return nil, nil, err
		}
		mr := &pubtac.MultiResult{SchemaVersion: pubtac.ResultSchemaVersion}
		for _, in := range j.Inputs {
			res, err := r.path(ctx, root, j.Program.Name, pubbed, rep, in)
			if err != nil {
				return nil, nil, fmt.Errorf("rebuilding %s(%s): %w", j.Program.Name, in.Name, err)
			}
			mr.Results = append(mr.Results, res)
		}
		br.Jobs = append(br.Jobs, mr)
	}
	sp := r.tr.Begin(r.op, root)
	body, err := br.JSON()
	r.tr.End(sp, "pubtac.json")
	return br, body, err
}

// path mirrors core's per-path pipeline: Exec, Compile, TAC, the MBPTA
// convergence loop and the TAC extension.
func (r *rebuild) path(ctx context.Context, parent int, name string,
	pubbed *program.Program, rep pub.Report, in program.Input) (*pubtac.Result, error) {
	tr, op, cfg := r.tr, r.op, r.cfg
	sp := tr.Begin(op, parent)
	res, err := pubbed.Exec(in)
	tr.End(sp, "program.exec")
	if err != nil {
		return nil, err
	}
	tr.Add("program.trace_accesses", float64(len(res.Trace)))

	sp = tr.Begin(op, parent)
	ct := proc.Compile(res.Trace, cfg.Model)
	tr.End(sp, "proc.compile")

	tcfg := cfg.TAC
	if tcfg.Workers == 0 {
		tcfg.Workers = 1
	}
	sp = tr.Begin(op, parent)
	ta, err := tac.AnalyzeCompiled(res.Trace, ct, cfg.Model, tcfg)
	tr.End(sp, "tac.analyze")
	if err != nil {
		return nil, err
	}
	tr.Add("tac.classes", float64(len(ta.Classes)))

	eng := proc.NewEngine(cfg.Model)
	eng.SetCompiled(ct, res.Trace)
	c := &campaign{r: r, eng: eng, trace: res.Trace, cfg: cfg.MBPTA, name: name, input: in.Name,
		root: mbpta.Seed(name+"/"+in.Name) ^ cfg.SeedSalt, sum: mbpta.NewSummary(cfg.MBPTA)}

	// Campaign.ConvergeCtx: grow by Increment until the probe pWCET holds
	// still for StableRounds rounds.
	c.parent = tr.Begin(op, parent)
	est, err := c.converge(ctx)
	tr.End(c.parent, "mbpta")
	if err != nil {
		return nil, err
	}
	rpub := c.sum.N()

	// core: extend the converged summary to R = max(R_pub, R_tac) runs,
	// capped, and re-estimate on the extended sample.
	total := max(rpub, ta.MinRuns)
	used := total
	if cfg.CampaignCap > 0 && used > cfg.CampaignCap {
		used = cfg.CampaignCap
	}
	if used <= rpub {
		used = rpub
	} else {
		c.parent = tr.Begin(op, parent)
		if err = c.push(ctx, used-rpub); err == nil {
			est, err = c.estimate()
		}
		tr.End(c.parent, "mbpta")
		if err != nil {
			return nil, err
		}
	}
	tr.Add("mbpta.extend_runs", float64(used-rpub))
	tr.Add("mbpta.runs_used", float64(used))
	tr.Max("stats.peak_bytes", float64(c.sum.PeakBytes()))

	out := &pubtac.Result{
		SchemaVersion: pubtac.ResultSchemaVersion,
		Program:       name,
		Input:         in.Name,
		Path:          res.Path,
		RPub:          rpub,
		RTac:          ta.MinRuns,
		R:             total,
		RunsUsed:      used,
		PubConstructs: rep.Constructs,
		PubCodeGrowth: rep.CodeGrowth(),
		TACClasses:    len(ta.Classes),
		MaxObserved:   est.view.Max(),
		Curve:         make([]pubtac.PWCETPoint, len(resultProbes)),
	}
	for i, p := range resultProbes {
		out.Curve[i] = pubtac.PWCETPoint{Prob: p, Cycles: est.curve.ValueAt(p)}
	}
	return out, nil
}

// campaign is one path's measurement campaign on a single engine.
type campaign struct {
	r           *rebuild
	parent      int // the enclosing mbpta span
	eng         *proc.Engine
	trace       trace.Trace
	cfg         mbpta.Config
	name, input string
	root        uint64
	sum         stats.SampleSummary
}

// estimate is what mbpta.NewEstimateSummary computes that reaches a result:
// the tail fit and composite curve over a snapshot view, plus the i.i.d.
// battery every estimate pays for.
type estimate struct {
	view  stats.SampleView
	curve *evt.SummaryComposite
}

func (c *campaign) converge(ctx context.Context) (estimate, error) {
	if err := c.push(ctx, c.cfg.InitialRuns); err != nil {
		return estimate{}, err
	}
	est, err := c.estimate()
	if err != nil {
		return estimate{}, err
	}
	prev := est.curve.ValueAt(c.cfg.StabilityProb)
	stable := 0
	for c.sum.N() < c.cfg.MaxRuns {
		if err := c.push(ctx, c.cfg.Increment); err != nil {
			return estimate{}, err
		}
		c.r.tr.Add("mbpta.rounds", 1)
		if est, err = c.estimate(); err != nil {
			return estimate{}, err
		}
		cur := est.curve.ValueAt(c.cfg.StabilityProb)
		if relDiff(cur, prev) <= c.cfg.StabilityEps {
			if stable++; stable >= c.cfg.StableRounds {
				break
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return est, nil
}

// push collects the campaign's next add runs and pushes them into the
// summary: a whole round at once into a full summary, streamChunk runs at a
// time into a streaming one.
func (c *campaign) push(ctx context.Context, add int) error {
	chunk := add
	if c.cfg.Streaming {
		chunk = min(add, streamChunk)
	}
	buf := make([]float64, chunk)
	for done := 0; done < add; done += len(buf) {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf = buf[:min(chunk, add-done)]
		if err := c.collect(ctx, buf, c.sum.N()); err != nil {
			return err
		}
		sp := c.r.tr.Begin(c.r.op, c.parent)
		c.sum.Push(buf)
		c.r.tr.End(sp, "stats.push")
	}
	return nil
}

// collect fills dst with runs offset..offset+len(dst)-1: through the
// fabric when the rebuild has one, locally otherwise.
func (c *campaign) collect(ctx context.Context, dst []float64, offset int) error {
	if c.r.fabric == nil {
		c.replay(dst, offset, c.parent)
		return nil
	}
	leftover, err := c.collectShards(ctx, dst, offset)
	for _, rg := range leftover {
		c.replay(dst[rg.Lo-offset:rg.Hi-offset], rg.Lo, c.parent)
	}
	return err
}

// replay simulates runs offset..offset+len(dst)-1 on the campaign's engine
// under a proc.replay span.
func (c *campaign) replay(dst []float64, offset, parent int) {
	tr := c.r.tr
	sp := tr.Begin(c.r.op, parent)
	c.eng.CampaignInto(c.trace, dst, c.root, offset)
	d := tr.End(sp, "proc.replay")
	tr.Add("proc.runs", float64(len(dst)))
	tr.Add("proc.accesses", float64(len(dst)*len(c.trace)))
	tr.Add("proc.replay_ns", float64(d))
}

// collectShards mirrors core's remote collector: it splits the range into
// contiguous shards, dispatches them concurrently, copies accepted shards
// into their slots and returns the failed ranges for local replay.
func (c *campaign) collectShards(ctx context.Context, dst []float64, offset int) ([]mbpta.Range, error) {
	r, tr := c.r, c.r.tr
	fp := r.cfg.Fingerprint()
	n, k := len(dst), r.cfg.Shards
	if k <= 0 {
		k = r.fabric.Shards()
	}
	k = min(max(k, 1), n)
	var mu sync.Mutex
	var leftover []mbpta.Range
	g, gctx := pool.WithContext(ctx)
	g.SetLimit(k)
	for i := 0; i < k; i++ {
		lo, hi := offset+i*n/k, offset+(i+1)*n/k
		if lo == hi {
			continue
		}
		g.Go(func() error {
			spec := pubtac.ShardSpec{Config: hex.EncodeToString(fp[:]), Program: c.name, Input: c.input,
				Root: c.root, Lo: lo, Hi: hi}
			sp := tr.Begin(r.op, c.parent)
			runs, err := r.fabric.CollectShard(withSpan(gctx, tr, r.op, sp), spec)
			tr.End(sp, "client.shard")
			// Attempts beyond these calls are the fabric's retries and
			// hedges, which the fixture's counters add.
			tr.Add("client.shard_attempts", 1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil || len(runs) != hi-lo {
				if cerr := gctx.Err(); cerr != nil {
					return cerr
				}
				leftover = append(leftover, mbpta.Range{Lo: lo, Hi: hi})
				return nil
			}
			tr.Add("client.shards_ok", 1)
			copy(dst[lo-offset:hi-offset], runs)
			if tr != nil {
				r.shards = append(r.shards, shardRun{c, spec, runs})
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	sort.Slice(leftover, func(i, j int) bool { return leftover[i].Lo < leftover[j].Lo })
	return leftover, nil
}

func (c *campaign) estimate() (estimate, error) {
	tr, op := c.r.tr, c.r.op
	sp := tr.Begin(op, c.parent)
	v := c.sum.View()
	tail, _, err := evt.FitExpTailAutoSummary(v, c.cfg.TailCount, v.N()/5)
	var curve *evt.SummaryComposite
	if err == nil {
		curve = evt.NewSummaryComposite(v, tail)
	}
	tr.End(sp, "evt.fit")
	if err != nil {
		return estimate{}, fmt.Errorf("%w: %v", mbpta.ErrSampleTooSmall, err)
	}
	sp = tr.Begin(op, c.parent)
	c.sum.IID()
	tr.End(sp, "stats.battery")
	return estimate{view: v, curve: curve}, nil
}

// relDiff is mbpta's convergence criterion: |a-b|/|b|.
func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
