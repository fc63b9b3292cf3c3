// Package bench is pubtac's end-to-end benchmark: four workloads that drive
// the Session API in process, the caching daemon over HTTP and a sharded
// campaign over a peer fabric, each timed from outside by calling the
// exported functions of the layers it exercises. A traced run breaks each op
// down into per-layer self times. See README.md for the workloads, the
// metrics and how to run, trace and compare.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pubtac/internal/pool"
)

// Config is one benchmark run's settings.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the measurement window: ops start until it has passed.
	// A traced run spends half of it on an untraced pass and then repeats
	// as many ops traced.
	Seconds float64
	Trace   bool
	// TempDir is where the daemon workloads keep their result stores.
	TempDir string
	// Setups is how many times the fixture is built; setup_s is the
	// median. 0 picks the count by the set-up's cost (see moreSetups).
	Setups int
	// Scale multiplies every campaign (0 means 1.0, the paper's size);
	// tests and quick local checks shrink it.
	Scale float64
}

func (c Config) scale() float64 {
	if c.Scale == 0 {
		return 1.0
	}
	return c.Scale
}

// workload is one traffic shape of the benchmark.
type workload struct {
	name, why string
	clients   int // closed-loop clients issuing ops concurrently
	// minOps is how many ops the untraced pass runs even when the window
	// has passed (at least one): a workload of multi-second ops would
	// otherwise report the median of a varying few.
	minOps int
	// setup builds the workload's fixture. tr is the traced run's tracer
	// (nil when untraced), for the spans recorded inside servers.
	setup func(ctx context.Context, cfg Config, tr *Tracer) (fixture, error)
}

// fixture is a workload's set-up state: everything its ops need.
type fixture interface {
	// op runs op i of the workload's deterministic op sequence and checks
	// its output; tr is nil on untraced passes.
	op(ctx context.Context, i int, tr *Tracer) sample
	// counters returns cumulative layer counters kept outside the tracer
	// (server and fabric statistics); a traced pass records their change.
	counters() map[string]float64
	// finish runs the end-of-run output checks.
	finish() error
	// digest identifies the workload's outputs for (workload, seed), so two
	// builds can be compared byte for byte.
	digest() string
	close()
}

// sample is the outcome of one op.
type sample struct {
	ms    float64
	class string    // the daemon request's class; empty elsewhere
	parts []float64 // the sharded op's per-path latencies
	runs  int       // simulated runs behind the op's results
	err   error     // a failed call or a failed output check
}

// Workloads lists the workloads by name, in README order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

var workloads = []workload{
	{name: "paper-batch", clients: 1, minOps: 5, setup: newPaperBatch,
		why: "the Table-2 campaign at paper scale: replay-bound, touches no serving code"},
	{name: "short-multipath", clients: 1, setup: newShortMultipath,
		why: "23 short-trace paths: estimation-bound, where a replay gain should show as no change"},
	{name: "daemon-mix", clients: 2, setup: newDaemonMix,
		why: "closed-loop daemon traffic: memory and disk hits, 304 revalidations and fsync'd cold writes"},
	{name: "sharded-stream", clients: 1, setup: newShardedStream,
		why: "paths sharded one at a time over two loopback workers with streaming estimation"},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, Workloads())
}

// Report is the outcome of one run.
type Report struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Runner     string           `json:"runner,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Digest     string           `json:"digest"`
	Problems   []string         `json:"problems,omitempty"`
	Metrics    map[string]Value `json:"metrics"`
}

// Value is one metric's value with its unit and, for timings, the number
// of samples behind it.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// maxProblems bounds how many failed checks a report spells out.
const maxProblems = 5

// Run sets up the workload, warms it up with op 0 and measures it, untraced
// (the end-to-end metrics) or traced (the per-layer metrics). The returned
// tracer is nil for untraced runs.
func Run(ctx context.Context, cfg Config) (*Report, *Tracer, error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return nil, nil, err
	}
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
	}
	rep := &Report{Workload: w.name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), Metrics: make(map[string]Value)}
	var f fixture
	var setupS []float64
	var passes []*pass // every pass run, warm-ups included, for the failure count
	for total := 0.0; cfg.moreSetups(len(setupS), total); {
		if f != nil {
			// Each set-up starts from the same heap, so the garbage of the
			// previous one neither slows it nor raises peak RSS.
			f.close()
			runtime.GC()
		}
		// Set-up includes the warm-up op, so that work a change moves from
		// building the fixture into a session's first call still counts.
		t0 := time.Now()
		if f, err = w.setup(ctx, cfg, tr); err != nil {
			return nil, nil, fmt.Errorf("bench: setting up %s: %w", w.name, err)
		}
		warm, err := measure(ctx, f, 1, 0, keepGoing(0, 1), nil)
		if err != nil {
			f.close()
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
		passes = append(passes, warm)
		if d := f.digest(); rep.Digest == "" {
			rep.Digest = d
		} else if d != rep.Digest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("set-up %d digest %s differs from set-up 1's, %s",
				len(setupS), d, rep.Digest))
		}
	}
	defer f.close()

	if !cfg.Trace {
		p, err := measure(ctx, f, w.clients, 1, keepGoing(cfg.Seconds, max(w.minOps, 1)), nil)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		endToEnd(rep, p, setupS)
	} else {
		// The untraced pass gives the traced one its baseline: tracing
		// overhead is the change in median op time between the two.
		base, err := measure(ctx, f, w.clients, 1, keepGoing(cfg.Seconds/2, 1), nil)
		if err != nil {
			return nil, nil, err
		}
		var memBefore, memAfter runtime.MemStats
		before := f.counters()
		runtime.ReadMemStats(&memBefore)
		n := len(base.ms)
		traced, err := measure(ctx, f, w.clients, 1+n, keepGoing(0, n), tr)
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&memAfter)
		for name, v := range f.counters() {
			tr.Add(name, v-before[name])
		}
		tr.Add("runtime.alloc_mb", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/(1<<20))
		tr.Add("runtime.gc", float64(memAfter.NumGC-memBefore.NumGC))
		tr.Add("trace.overhead", median(traced.ms)/median(base.ms)-1)
		for name, v := range layerValues(tr.finish(), n) {
			rep.Metrics[name] = Value{Value: v, Unit: layerUnit(name), Samples: n}
		}
		passes = append(passes, base, traced)
	}

	for _, p := range passes {
		rep.Attempted += len(p.ms)
		rep.Failed += p.failed
		for _, msg := range p.problems {
			if len(rep.Problems) < maxProblems {
				rep.Problems = append(rep.Problems, msg)
			}
		}
	}
	if err := f.finish(); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	if !cfg.Trace {
		rep.Metrics["error_rate"] = Value{Value: ratio(float64(rep.Failed), float64(rep.Attempted)),
			Unit: "fraction", Samples: rep.Attempted}
	}
	return rep, tr, nil
}

// Set-up repetitions: at least minSetups, then more until setupBudget
// seconds were spent or maxSetups were made. setup_s is their median, so a
// set-up of milliseconds is timed over many repetitions and one of seconds
// over a few.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 5.0
)

// moreSetups reports whether to build the fixture again after done set-ups
// that took total seconds. Traced runs, which do not report setup_s, set up
// once.
func (c Config) moreSetups(done int, total float64) bool {
	switch {
	case c.Setups > 0:
		return done < c.Setups
	case c.Trace:
		return done < 1
	}
	return done < minSetups || (done < maxSetups && total < setupBudget)
}

// keepGoing is a pass's stop rule: ops start while the window lasts, and
// until minOps of them have started.
func keepGoing(seconds float64, minOps int) func(k int, elapsed time.Duration) bool {
	return func(k int, elapsed time.Duration) bool {
		return elapsed.Seconds() < seconds || k < minOps
	}
}

// pass is what a pass of ops keeps of them: latencies and failures. It
// keeps nothing else per op, so that the benchmark's own memory, which
// peak_rss_mb includes, hardly grows with the number of ops a run manages.
type pass struct {
	mu       sync.Mutex
	ms       []float64            // every op's latency
	byClass  map[string][]float64 // the daemon requests' latencies by class
	parts    []float64            // the sharded paths' latencies
	runs     int                  // simulated runs behind the ops' results
	failed   int
	problems []string // the first maxProblems failures
	wall     time.Duration
}

func (p *pass) add(s sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ms = append(p.ms, s.ms)
	if s.class != "" {
		p.byClass[s.class] = append(p.byClass[s.class], s.ms)
	}
	p.parts = append(p.parts, s.parts...)
	p.runs += s.runs
	if s.err != nil {
		p.failed++
		if len(p.problems) < maxProblems {
			p.problems = append(p.problems, s.err.Error())
		}
	}
}

// measure runs ops first, first+1, ... from clients closed-loop clients
// until keep says stop. Each client issues its next op only when the
// previous one has completed.
func measure(ctx context.Context, f fixture, clients, first int,
	keep func(k int, elapsed time.Duration) bool, tr *Tracer) (*pass, error) {
	var next atomic.Int64
	next.Store(int64(first))
	p := &pass{byClass: make(map[string][]float64)}
	start := time.Now()
	g, gctx := pool.WithContext(ctx)
	for range clients {
		g.Go(func() error {
			for gctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if !keep(i-first, time.Since(start)) {
					return nil
				}
				p.add(f.op(gctx, i, tr))
			}
			return gctx.Err()
		})
	}
	err := g.Wait()
	p.wall = time.Since(start)
	return p, err
}

// endToEnd fills the report's end-to-end metrics from the measured pass.
func endToEnd(rep *Report, p *pass, setupS []float64) {
	put := func(name string, v float64, n int) {
		rep.Metrics[name] = Value{Value: v, Unit: unitOf(name), Samples: n}
	}
	pct := func(name string, xs []float64, q float64) {
		if v, ok := percentile(xs, q); ok {
			put(name, v, len(xs))
		}
	}
	n := len(p.ms)
	pct("op_p50_ms", p.ms, 0.5)
	pct("op_p90_ms", p.ms, 0.9)
	put("ops_per_s", float64(n)/p.wall.Seconds(), n)
	put("peak_rss_mb", peakRSSMB(), 1)
	put("setup_s", median(setupS), len(setupS))
	if p.runs > 0 {
		opS := 0.0
		for _, ms := range p.ms {
			opS += ms / 1000
		}
		put("sim_runs_per_s", float64(p.runs)/opS, n)
	}
	pct("path_p50_ms", p.parts, 0.5)
	pct("path_p90_ms", p.parts, 0.9)
	pct("hit_p50_ms", p.byClass[classHit], 0.5)
	pct("hit_p99_ms", p.byClass[classHit], 0.99)
	pct("disk_hit_p50_ms", p.byClass[classDisk], 0.5)
	pct("revalidate_p50_ms", p.byClass[classRevalidate], 0.5)
	pct("cold_p50_ms", p.byClass[classCold], 0.5)
	pct("cold_p90_ms", p.byClass[classCold], 0.9)
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
