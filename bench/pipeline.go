package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"pubtac"
)

// tableTwoRTac is R_tac of every benchmark's default input (the paper's
// Table 2). TAC's run requirement is analytic, so it holds at every scale
// and seed; paper-batch checks every op against it.
var tableTwoRTac = map[string]int{
	"bs": 6520, "cnt": 21211, "fir": 21211, "janne": 12116, "crc": 42431,
	"edn": 84873, "insertsort": 84873, "jfdctint": 3385, "matmult": 84873,
	"fdct": 1405, "ns": 84873,
}

// shortMultipath are the benchmarks whose every input vector short-multipath
// analyzes: 23 paths with traces of 181 to 1,220 accesses.
var shortMultipath = []string{"bs", "janne", "insertsort", "jfdctint", "fdct"}

// shortSalts is how many campaign salts short-multipath cycles through.
// How many convergence rounds a short path takes depends on its campaign
// seed, so one salt's op time is a draw from a wide distribution; cycling
// through many salts in a run makes the run's median stand for the
// distribution rather than for the one draw the run's seed picked.
const shortSalts = 16

// salt is the campaign seed salt of salt index k under the run's seed;
// index 0 is the seed itself.
func salt(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

// pipeline is the fixture of the two in-process workloads: a fixed batch,
// analyzed once per op by one of the fixture's sessions (op i uses session
// i mod len(sessions)). Every op must repeat the bytes of the first op on
// its session. In traced runs there is one session: op 0 calls
// Session.AnalyzeBatch (the reference), and every later op rebuilds the
// batch from layer calls, with spans on the traced pass and without them on
// its untraced baseline pass.
type pipeline struct {
	sessions []*pubtac.Session
	jobs     []pubtac.Job
	rebuild  bool           // a traced run: ops after op 0 rebuild the batch
	rtac     map[string]int // expected R_tac per program; nil skips the check
	ref      [][]byte       // per session, the result JSON of its first op
}

func newPaperBatch(_ context.Context, cfg Config, _ *Tracer) (fixture, error) {
	jobs, err := pubtac.BenchmarkJobs()
	if err != nil {
		return nil, err
	}
	return newPipeline(cfg, jobs, 1, tableTwoRTac), nil
}

func newShortMultipath(_ context.Context, cfg Config, _ *Tracer) (fixture, error) {
	jobs := make([]pubtac.Job, 0, len(shortMultipath))
	for _, name := range shortMultipath {
		b, err := pubtac.Benchmark(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, pubtac.Job{Program: b.Program, Inputs: b.Inputs})
	}
	return newPipeline(cfg, jobs, shortSalts, nil), nil
}

// newPipeline builds the sessions, one per salt: GOMAXPROCS workers, or in
// traced runs a single session on one worker, whose rebuild is serial too.
func newPipeline(cfg Config, jobs []pubtac.Job, salts int, rtac map[string]int) *pipeline {
	opts := []pubtac.Option{pubtac.WithScale(cfg.scale())}
	if cfg.Trace {
		opts = append(opts, pubtac.WithWorkers(1))
		salts = 1
	}
	p := &pipeline{jobs: jobs, rebuild: cfg.Trace, rtac: rtac, ref: make([][]byte, salts)}
	for k := 0; k < salts; k++ {
		p.sessions = append(p.sessions, pubtac.NewSession(append(opts, pubtac.WithSeed(salt(cfg.Seed, k)))...))
	}
	return p
}

func (p *pipeline) op(ctx context.Context, i int, tr *Tracer) sample {
	k := i % len(p.sessions)
	s := p.sessions[k]
	t0 := time.Now()
	var br *pubtac.BatchResult
	var body []byte
	var err error
	if p.rebuild && i > 0 {
		r := &rebuild{tr: tr, op: i, cfg: s.Config()}
		br, body, err = r.batch(ctx, Root, p.jobs)
	} else if br, err = s.AnalyzeBatch(ctx, p.jobs); err == nil {
		body, err = br.JSON()
	}
	smp := sample{ms: msSince(t0), err: err}
	if err != nil {
		return smp
	}
	for _, r := range br.All() {
		smp.runs += r.RunsUsed
	}
	if smp.err = p.check(i, k, br, body); smp.err == nil && tr != nil {
		_, smp.err = deriveKey(tr, i, s, p.jobs)
	}
	return smp
}

func (p *pipeline) check(i, k int, br *pubtac.BatchResult, body []byte) error {
	for _, r := range br.All() {
		if want, ok := p.rtac[r.Program]; ok && r.RTac != want {
			return fmt.Errorf("op %d: %s(%s) r_tac = %d, want %d", i, r.Program, r.Input, r.RTac, want)
		}
	}
	if p.ref[k] == nil {
		p.ref[k] = body
		return nil
	}
	if !bytes.Equal(body, p.ref[k]) {
		return fmt.Errorf("op %d: result sha256 %s differs from the first op's on its salt, %s",
			i, sum(body), sum(p.ref[k]))
	}
	return nil
}

func (p *pipeline) counters() map[string]float64 { return nil }

func (p *pipeline) finish() error {
	if p.ref[0] == nil {
		return fmt.Errorf("no op completed")
	}
	return nil
}

// digest is the first op's result: a function of the workload and the seed
// alone, whatever the number of ops run.
func (p *pipeline) digest() string { return sum(p.ref[0]) }

func (p *pipeline) close() {}

// deriveKey is the daemon's key derivation for jobs under session s's
// configuration (Job.Key and AnalysisKey), as a direct call of op.
func deriveKey(tr *Tracer, op int, s *pubtac.Session, jobs []pubtac.Job) (pubtac.Fingerprint, error) {
	sp := tr.Begin(op, Direct)
	defer tr.End(sp, "serve.key")
	keys := make([]pubtac.Fingerprint, len(jobs))
	for i, j := range jobs {
		k, err := j.Key(s.Config().SeedSalt)
		if err != nil {
			return pubtac.Fingerprint{}, err
		}
		keys[i] = k
	}
	return pubtac.AnalysisKey(s.ConfigFingerprint(), keys...), nil
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
