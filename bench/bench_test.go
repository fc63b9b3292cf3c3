package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pubtac"
)

// tinyConfig runs a workload for its minimum op count (one op, five on
// paper-batch) at a small campaign scale.
func tinyConfig(t *testing.T, workload string) Config {
	return Config{Workload: workload, Seed: 1, Scale: 0.01, Setups: 1, TempDir: t.TempDir()}
}

// TestWorkloadsTiny runs every workload, untraced and traced, for a handful
// of ops: every output check passes and every gated metric is reported,
// the end-to-end ones nonzero. So is every layer time, except on
// daemon-mix, which reaches the pipeline's layers only through the cold
// requests a one-op run may not draw.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				t.Parallel()
				cfg := tinyConfig(t, w)
				cfg.Trace = traced
				rep, tr, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Fatalf("run not correct: %d/%d ops failed, problems %v", rep.Failed, rep.Attempted, rep.Problems)
				}
				if rep.Digest == "" {
					t.Fatal("no digest")
				}
				nonzero := make(map[string]bool)
				if traced {
					if tr == nil {
						t.Fatal("traced run returned no tracer")
					}
					for _, m := range PerLayer {
						nonzero[m.Name] = w != "daemon-mix" && (m.Unit == "ms" || m.Unit == "ns")
					}
				} else {
					if v := rep.Metrics["error_rate"].Value; v != 0 {
						t.Fatalf("error_rate = %v", v)
					}
					for _, m := range EndToEnd {
						nonzero[m.Name] = true
					}
				}
				for name, nz := range nonzero {
					v, ok := rep.Metrics[name]
					if !ok || math.IsNaN(v.Value) || (nz && v.Value <= 0) {
						t.Errorf("metric %s missing, NaN or not positive: %+v", name, v)
					}
				}
			})
		}
	}
}

// TestDigestRepeats: the result digest is a function of (workload, seed),
// so two builds can be compared byte for byte; another seed changes it.
func TestDigestRepeats(t *testing.T) {
	digest := func(seed uint64) string {
		cfg := tinyConfig(t, "short-multipath")
		cfg.Seed = seed
		rep, _, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Digest
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Fatalf("seed 1 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("seeds 1 and 2 give the same digest")
	}
}

// TestDaemonOpSequence: the daemon request sequence is a function of the
// seed alone, whatever order ops are taken in; cold subsets never repeat;
// the mix is close to its 85/14/1 shares.
func TestDaemonOpSequence(t *testing.T) {
	const n = 20000
	a, b := newDaemonGen(1, 39), newDaemonGen(1, 39)
	last := b.take(n - 1) // draw everything first, then take the rest
	kinds := make(map[string]int)
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		x, y := a.take(i), last
		if i < n-1 {
			y = b.take(i)
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("op %d differs between draw orders: %+v vs %+v", i, x, y)
		}
		kinds[x.kind]++
		if x.kind == classCold {
			id := fmt.Sprint(x.cold)
			if seen[id] {
				t.Fatalf("op %d repeats cold subset %s", i, id)
			}
			seen[id] = true
			if len(x.cold) < 2 || len(x.cold) > 3 {
				t.Fatalf("op %d: cold subset of %d pairs", i, len(x.cold))
			}
		}
	}
	for kind, share := range map[string]float64{classHit: 0.85, classRevalidate: 0.14, classCold: 0.01} {
		if got := float64(kinds[kind]) / n; math.Abs(got-share) > 0.01 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
	one, two := newDaemonGen(1, 39), newDaemonGen(2, 39)
	same := 0
	for i := 0; i < 100; i++ {
		if reflect.DeepEqual(one.take(i), two.take(i)) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("seeds 1 and 2 draw the same sequence")
	}
}

// TestRebuildBitIdentical: the traced rebuild of bs's and cnt's paths
// reproduces Session.AnalyzeBatch byte for byte, and its spans cover the
// op.
func TestRebuildBitIdentical(t *testing.T) {
	ctx := context.Background()
	var jobs []pubtac.Job
	for _, name := range []string{"bs", "cnt"} {
		b, err := pubtac.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pubtac.Job{Program: b.Program, Inputs: b.Inputs})
	}
	s := pubtac.NewSession(pubtac.WithScale(0.02), pubtac.WithSeed(7))
	br, err := s.AnalyzeBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := br.JSON()
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	r := &rebuild{tr: tr, op: 0, cfg: s.Config()}
	_, got, err := r.batch(ctx, Root, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("rebuild differs from the Session:\n%s\nvs\n%s", got, want)
	}
	c := tr.finish()
	if cov := c["trace.covered_ms"] / c["trace.op_ms"]; cov < 0.95 {
		t.Errorf("spans cover %.3f of the op, want >= 0.95", cov)
	}
	if c["proc.runs"] == 0 || c["proc.replay_ms"] == 0 || c["mbpta.rounds"] == 0 {
		t.Errorf("layer counters missing: %v", c)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // outlives the root
		{Name: "d", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1, 0.5, true}, // the median is always reported
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.ok {
			t.Errorf("p%v of %d samples: reported=%v, want %v", 100*c.q, c.n, ok, c.ok)
		}
	}
	if v, _ := percentile(seq(101), 0.5); v != 51 {
		t.Errorf("median of 1..101 = %v", v)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	reports := func(workload string, vals ...float64) []*Report {
		var out []*Report
		for _, v := range vals {
			out = append(out, &Report{Workload: workload, Correct: true, Attempted: 100, Metrics: map[string]Value{
				"op_p50_ms": {Value: v, Unit: "ms"}, "ops_per_s": {Value: 1000 / v, Unit: "1/s"},
			}})
		}
		return out
	}
	scaled := func(f float64, vals ...float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = f * v
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	base := reports("paper-batch", steady...)
	bound := EndToEnd[0].Bound
	for _, c := range []struct {
		head []float64
		want string
	}{
		{scaled(0.8, steady...), Improved},
		{[]float64{101, 99, 100, 102, 98, 100, 101, 99, 100, 100}, Unchanged},
		{scaled(1+2*bound, steady...), Regressed},
		{scaled(1+bound/2, steady...), Unchanged}, // worse, within bound
	} {
		rows := Compare(base, reports("paper-batch", c.head...))
		if len(rows) != 2 {
			t.Fatalf("got %d rows, want 2", len(rows))
		}
		for _, r := range rows {
			if r.Verdict != c.want {
				t.Errorf("head %v: %s verdict %s (won %.2f), want %s", c.head, r.Metric, r.Verdict, r.Won, c.want)
			}
		}
	}
	// A base that spreads wider than the bound cannot resolve a small
	// change, but a change every run of which beats every base run can.
	wide := reports("daemon-mix", 20, 180, 40, 160, 100, 30, 170, 60, 140, 100)
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{95, 105, 90, 110, 100, 92, 108, 97, 103, 100}, Unresolved},
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, Improved},
	} {
		rows := Compare(wide, reports("daemon-mix", c.head...))
		if rows[0].Verdict != c.want {
			t.Errorf("wide base, head %v: verdict %s, want %s", c.head, rows[0].Verdict, c.want)
		}
	}
	// Fewer than ten pairs claim no gain.
	rows := Compare(base[:9], reports("paper-batch", scaled(0.8, steady[:9]...)...))
	if rows[0].Verdict != Unchanged {
		t.Errorf("nine pairs: verdict %s, want %s", rows[0].Verdict, Unchanged)
	}

	// A faster head in which a minority of runs failed an op: its median
	// error_rate is still 0, but it has more failures than the base, so
	// error_rate regresses and the speed-up is no gain.
	withErrors := func(rs []*Report, failed ...int) []*Report {
		for i, r := range rs {
			r.Metrics["error_rate"] = Value{Unit: "fraction"}
			if i < len(failed) && failed[i] > 0 {
				r.Failed, r.Correct = failed[i], false
				r.Metrics["error_rate"] = Value{Value: float64(failed[i]) / float64(r.Attempted), Unit: "fraction"}
			}
		}
		return rs
	}
	want := map[string]string{"op_p50_ms": Unresolved, "ops_per_s": Unresolved, "error_rate": Regressed}
	rows = Compare(withErrors(reports("paper-batch", steady...)),
		withErrors(reports("paper-batch", scaled(0.8, steady...)...), 1, 0, 2))
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("head with failed runs: %s verdict %s, want %s", r.Metric, r.Verdict, want[r.Metric])
		}
	}
	// As many failures on both sides: the gain stands.
	rows = Compare(withErrors(reports("paper-batch", steady...), 0, 3),
		withErrors(reports("paper-batch", scaled(0.8, steady...)...), 1, 0, 2))
	if rows[0].Verdict != Improved {
		t.Errorf("equal failures: verdict %s, want %s", rows[0].Verdict, Improved)
	}

	// setup_s regresses only past its floor as well as its bound.
	setups := func(vals ...float64) []*Report {
		rs := reports("short-multipath", vals...)
		for i, r := range rs {
			r.Metrics = map[string]Value{"setup_s": {Value: vals[i], Unit: "s"}}
		}
		return rs
	}
	for _, c := range []struct {
		head float64
		want string
	}{
		{0.02, Unchanged}, // twice the base, but 10 ms worse
		{0.1, Regressed},
	} {
		rows := Compare(setups(0.01, 0.01, 0.01), setups(c.head, c.head, c.head))
		if rows[0].Verdict != c.want {
			t.Errorf("setup_s 0.01 s -> %v s: verdict %s, want %s", c.head, rows[0].Verdict, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark contract is
// read from, in step with the definitions here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []Metric `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var gated []Metric
	for _, m := range EndToEnd {
		m.Floor = 0 // compare's alone
		gated = append(gated, m)
	}
	if !reflect.DeepEqual(spec.EndToEnd, gated) {
		t.Errorf("end_to_end %+v\nwant %+v", spec.EndToEnd, gated)
	}
	var layers []Metric
	for _, m := range PerLayer {
		layers = append(layers, Metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer %+v\nwant %+v", spec.PerLayer, layers)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
}
