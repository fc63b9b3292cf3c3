package bench

import (
	"math"
	"sort"

	"pubtac/internal/stats"
)

// Metric describes one reported number. Bound is the share of the base
// median by which a change may worsen the metric before compare calls it a
// regression, and Floor an amount, in the metric's unit, that a worsening
// must exceed as well.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	Floor  float64 `json:"-"`
}

// EndToEnd are the gated end-to-end metrics, in BENCHMARK.json order. Every
// workload reports every one of them, so each is defined for every traffic
// shape: an op is one batch analysis, one daemon request or one sweep of
// sharded path analyses (see README.md). Each bound is what the metric's
// spread over ten seeds supports on a 2-vCPU shared host: every timing
// there drifts with the host's speed, by 0.1 to 0.25 over ten seeds, while
// peak RSS, which follows the garbage collector's pacing, spreads by up to
// 0.11.
var EndToEnd = []Metric{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
}

// Detail are the end-to-end metrics that exist only on some workloads (or
// can be zero), so they stay out of BENCHMARK.json: runs print them and
// compare judges them, but the benchmark contract does not gate on them.
var Detail = []Metric{
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25},
	{Name: "path_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "path_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "revalidate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cold_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "error_rate", Unit: "fraction", Better: "lower"},
}

func unitOf(name string) string {
	for _, m := range append(append([]Metric(nil), EndToEnd...), Detail...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// LayerMetric is one per-layer metric of the traced run. Its value is the
// counter Of (Name when empty) divided by the traced op count when Per is
// "op", by the counter Per when Per names one, and taken as recorded when
// Per is empty. Every span's self time is also a counter, "<span>_ms", so a
// metric such as proc.replay_ms is that layer's self time per op.
type LayerMetric struct {
	Name   string
	Unit   string
	Better string
	Of     string
	Per    string
}

// PerLayer are the traced run's metrics in BENCHMARK.json, in its order:
// the ones every workload measures. Each layer time below is nonzero on
// every workload, because where an op reaches a layer only inside another
// process the traced run calls the layer directly on the op's inputs (see
// Direct). Self times of spans inside ops sum to the mean traced op time;
// direct-call times break a handler down and come on top.
var PerLayer = []LayerMetric{
	// The pipeline, rebuilt from layer calls.
	{Name: "core.self_ms", Unit: "ms", Better: "lower", Of: "core_ms", Per: "op"},
	{Name: "pub.transform_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "program.exec_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "program.trace_accesses", Unit: "count", Better: "lower", Per: "op"},
	{Name: "proc.compile_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "proc.replay_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "proc.runs", Unit: "count", Better: "lower", Per: "op"},
	{Name: "proc.ns_per_access", Unit: "ns", Better: "lower", Of: "proc.replay_ns", Per: "proc.accesses"},
	{Name: "tac.analyze_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "tac.classes", Unit: "count", Better: "lower", Per: "op"},
	{Name: "mbpta.self_ms", Unit: "ms", Better: "lower", Of: "mbpta_ms", Per: "op"},
	{Name: "mbpta.rounds", Unit: "count", Better: "lower", Per: "op"},
	{Name: "mbpta.extend_share", Unit: "ratio", Better: "lower", Of: "mbpta.extend_runs", Per: "mbpta.runs_used"},
	{Name: "stats.push_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "stats.battery_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "stats.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "evt.fit_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "pubtac.json_ms", Unit: "ms", Better: "lower", Per: "op"},
	// Key derivation, as the daemon does it per analyze request.
	{Name: "serve.key_ms", Unit: "ms", Better: "lower", Per: "op"},
	// Counters of the daemon (statusz) and of the peer fabric.
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher", Of: "serve.hits", Per: "serve.lookups"},
	{Name: "serve.computed", Unit: "count", Better: "lower", Per: "op"},
	{Name: "serve.deduped", Unit: "count", Better: "lower", Per: "op"},
	{Name: "serve.sheds", Unit: "count", Better: "lower", Per: "op"},
	{Name: "serve.shards", Unit: "count", Better: "lower", Per: "op"},
	{Name: "serve.write_errors", Unit: "count", Better: "lower", Per: "op"},
	{Name: "serve.corrupt", Unit: "count", Better: "lower", Per: "op"},
	{Name: "client.retries", Unit: "count", Better: "lower", Per: "op"},
	{Name: "client.hedges", Unit: "count", Better: "lower", Per: "op"},
	{Name: "client.fail_fast", Unit: "count", Better: "lower", Per: "op"},
	{Name: "client.breaker_opens", Unit: "count", Better: "lower", Per: "op"},
	{Name: "client.shard_success_ratio", Unit: "ratio", Better: "higher", Of: "client.shards_ok", Per: "client.shard_attempts"},
	{Name: "stats.wire_bytes", Unit: "bytes", Better: "lower", Per: "op"},
	// The Go runtime and the tracer itself.
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Of: "runtime.alloc_mb", Per: "op"},
	{Name: "runtime.gc_per_op", Unit: "count", Better: "lower", Of: "runtime.gc", Per: "op"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Of: "trace.covered_ms", Per: "trace.op_ms"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// LayerDetail are the layer times of the serving workloads alone (0 on the
// others), so they stay out of BENCHMARK.json: traced runs print them and
// save them in their reports.
var LayerDetail = []LayerMetric{
	{Name: "client.self_ms", Unit: "ms", Better: "lower", Of: "client_ms", Per: "op"},
	{Name: "client.http.hit_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "client.http.disk_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "client.http.revalidate_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "client.http.cold_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.handler.hit_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.handler.disk_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.handler.revalidate_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.handler.cold_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.handler.shard_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.store_get.mem_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.store_get.disk_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "serve.store_put_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "client.shard_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "stats.encode_ms", Unit: "ms", Better: "lower", Per: "op"},
	{Name: "stats.decode_ms", Unit: "ms", Better: "lower", Per: "op"},
}

func layerUnit(name string) string {
	for _, m := range append(append([]LayerMetric(nil), PerLayer...), LayerDetail...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// layerValues evaluates PerLayer and LayerDetail over the counters of a
// traced pass of ops ops.
func layerValues(counts map[string]float64, ops int) map[string]float64 {
	out := make(map[string]float64, len(PerLayer)+len(LayerDetail))
	for _, m := range append(append([]LayerMetric(nil), PerLayer...), LayerDetail...) {
		of := m.Of
		if of == "" {
			of = m.Name
		}
		v := counts[of]
		switch m.Per {
		case "":
		case "op":
			v = ratio(v, float64(ops))
		default:
			v = ratio(v, counts[m.Per])
		}
		out[m.Name] = v
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minBeyond is how many samples must lie beyond a percentile above the
// median before it is reported.
const minBeyond = 10

// percentile returns the q-quantile of xs (linear interpolation) and
// whether it may be reported: the median always may, a higher percentile
// only with at least minBeyond samples beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := stats.SortedCopy(xs)
	ok := q <= 0.5 || len(xs)-int(math.Ceil(q*float64(len(xs))-1e-9)) >= minBeyond
	return stats.QuantileSorted(sorted, q), ok
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) ("exclusive"), the
// spread measure the benchmark's own acceptance uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
