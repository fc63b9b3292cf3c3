// Command pubtacbench runs pubtac's end-to-end benchmark (package
// pubtac/bench).
//
//	pubtacbench run -workload W -seed S [-seconds 12] [-trace 0|1] [-out report.json] [-runner label]
//	pubtacbench trace -workload W -seed S -out trace.json
//	pubtacbench compare BASE_DIR HEAD_DIR
//
// run measures one workload in this process and prints every metric by name
// with its unit and sample count, and the result digest; its last line is
// one JSON object with the fields correct, attempted, failed and metrics
// (the end-to-end metrics of BENCHMARK.json, or with -trace 1 its per-layer
// ones). It exits non-zero when any output check failed. -out saves the
// full report, which compare reads.
//
// trace is run -trace 1, except that -out receives the spans as Chrome
// trace-event JSON, with the report under "otherData".
//
// compare judges the reports in HEAD_DIR against those in BASE_DIR, one row
// per workload and metric, and exits non-zero when any metric regressed.
// Flags may also be spelled with two dashes (--workload).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	"pubtac/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		os.Exit(run(os.Args[2:], false))
	case "trace":
		os.Exit(run(os.Args[2:], true))
	case "compare":
		os.Exit(compare(os.Args[2:]))
	}
	usage()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pubtacbench run|trace -workload W -seed S [flags]")
	fmt.Fprintln(os.Stderr, "       pubtacbench compare BASE_DIR HEAD_DIR")
	fmt.Fprintf(os.Stderr, "workloads: %v\n", bench.Workloads())
	os.Exit(2)
}

func run(args []string, traced bool) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "workload to run")
		seed     = fs.Uint64("seed", 1, "seed of the workload's inputs and campaigns (1 = working seed, 2 = held-out)")
		seconds  = fs.Float64("seconds", 12, "measurement window in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		out      = fs.String("out", "", "write the report to this file (trace: the Chrome trace)")
		runner   = fs.String("runner", "", "label of the machine, recorded in the report")
		tmp      = fs.String("tmp", ".bench_build/tmp", "directory for the daemon workloads' result stores")
	)
	fs.Parse(args)
	cfg := bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: traced || *trace == 1,
		TempDir: *tmp,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, tr, err := bench.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubtacbench:", err)
		return 1
	}
	rep.Runner = *runner
	printReport(os.Stdout, rep)
	if !traced {
		tr = nil // -out gets the report
	}
	if *out != "" {
		if err := writeOut(*out, rep, tr); err != nil {
			fmt.Fprintln(os.Stderr, "pubtacbench:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(resultLine(rep)); err != nil {
		fmt.Fprintln(os.Stderr, "pubtacbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric the run measured, in definition order.
func printReport(w io.Writer, rep *bench.Report) {
	verdict := "correct"
	if !rep.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s seed=%d gomaxprocs=%d: %d ops attempted, %d failed, %s\n",
		rep.Workload, rep.Seed, rep.GoMaxProcs, rep.Attempted, rep.Failed, verdict)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
	fmt.Fprintf(w, "  digest %s\n", rep.Digest)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range metricNames(rep.Trace, false) {
		if v, ok := rep.Metrics[name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", name, v.Value, v.Unit, v.Samples)
		}
	}
	tw.Flush()
}

// metricNames lists a mode's metrics: the gated ones first, then the
// workload-specific ones.
func metricNames(traced, gatedOnly bool) []string {
	var names []string
	if traced {
		layers := bench.PerLayer
		if !gatedOnly {
			layers = append(append([]bench.LayerMetric(nil), layers...), bench.LayerDetail...)
		}
		for _, m := range layers {
			names = append(names, m.Name)
		}
		return names
	}
	metrics := bench.EndToEnd
	if !gatedOnly {
		metrics = append(append([]bench.Metric(nil), metrics...), bench.Detail...)
	}
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	return names
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last output line: the gated metrics of its mode
// (BENCHMARK.json's end_to_end, or per_layer when traced).
func resultLine(rep *bench.Report) any {
	gated := make(map[string]lineValue)
	for _, name := range metricNames(rep.Trace, true) {
		if v, ok := rep.Metrics[name]; ok {
			gated[name] = lineValue{v.Value, v.Unit}
		}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, gated}
}

func writeOut(path string, rep *bench.Report, tr *bench.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if tr != nil {
		err = tr.WriteChrome(f, rep)
	} else {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func compare(args []string) int {
	if len(args) != 2 {
		usage()
	}
	base, err := bench.LoadReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubtacbench:", err)
		return 1
	}
	head, err := bench.LoadReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubtacbench:", err)
		return 1
	}
	rows := bench.Compare(base, head)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "pubtacbench: no workload has reports on both sides")
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\thead median [q1, q3] (n)\thead won\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.Base[1], r.Base[0], r.Base[2], r.Runs[0],
			r.Head[1], r.Head[0], r.Head[2], r.Runs[1], 100*r.Won, r.Verdict)
		if r.Verdict == bench.Regressed {
			status = 1
		}
	}
	tw.Flush()
	return status
}
