// Command pubtac runs the full PUB+TAC analysis pipeline (Figure 3 of the
// paper) on one benchmark and input vector, printing the run requirements,
// TAC conflict classes and the resulting pWCET curve. Ctrl-C cancels a
// running campaign cleanly.
//
// Usage:
//
//	pubtac -bench bs -input v9 -scale 0.1
//	pubtac -bench crc -multipath -progress
//	pubtac -batch -scale 0.05 -json
//
// With -remote the analysis runs on a pubtacd daemon instead of in-process:
// the request is submitted over HTTP, progress streams back as Server-Sent
// Events, and repeated submissions are served from the daemon's
// content-addressed result store. The daemon's configuration (scale,
// workers, seed) applies; local simulation flags are ignored.
//
//	pubtac -remote http://127.0.0.1:8753 -bench bs -json
//
// With -peers the analysis stays local but its campaign collection is
// sharded across pubtacd workers running the same configuration; failed
// shards are recomputed locally and results are bit-identical to a purely
// local run at any peer or shard count.
//
//	pubtac -peers http://127.0.0.1:8761,http://127.0.0.1:8762 -bench bs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pubtac: ")
	var (
		benchName = flag.String("bench", "bs", "benchmark name (bs, cnt, fir, janne, crc, edn, insertsort, jfdctint, matmult, fdct, ns)")
		inputName = flag.String("input", "", "input vector name (default: benchmark default)")
		scale     = flag.Float64("scale", 0.05, "campaign scale (1.0 = paper-size)")
		multipath = flag.Bool("multipath", false, "analyze all available input vectors and take the Corollary-2 minimum")
		batch     = flag.Bool("batch", false, "analyze all 11 benchmarks concurrently (comma-separated names via -bench restrict the set)")
		workers   = flag.Int("workers", 0, "total simulation workers (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "print campaign progress events")
		stream    = flag.Bool("stream", false, "bounded-memory streaming estimation (top-K reservoir + quantile sketch instead of retained samples)")
		streamK   = flag.Int("stream-budget", 0, "streaming memory budget K (0 = default 8192); implies -stream")
		asJSON    = flag.Bool("json", false, "emit results as JSON")
		remote    = flag.String("remote", "", "pubtacd base URL; analyze remotely instead of in-process")
		peers     = flag.String("peers", "", "comma-separated pubtacd worker base URLs; campaign collection shards across them (results stay bit-identical)")
		shards    = flag.Int("shards", 0, "shards per campaign range when -peers is set (0 = one per peer)")
		peerRetry = flag.Int("peer-retry", 0, "dispatch attempts per shard before local fallback (0 = fabric default, 3)")
		hedge     = flag.Duration("hedge-delay", 0, "race an unanswered shard on a second peer after this long (0 = off)")
	)
	flag.Parse()
	if err := core.CheckScale(*scale); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	if *peers == "" && (*shards != 0 || *peerRetry != 0 || *hedge != 0) {
		log.Fatal("-shards, -peer-retry and -hedge-delay configure sharded collection; they need -peers")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *remote != "" {
		runRemote(ctx, *remote, *benchName, *inputName, *multipath, *batch, *progress, *asJSON)
		return
	}

	opts := []pubtac.Option{
		pubtac.WithScale(*scale),
		pubtac.WithWorkers(*workers),
	}
	if *stream || *streamK > 0 {
		opts = append(opts, pubtac.WithStreamingEstimation(*streamK))
	}
	if *peers != "" {
		fabric := client.NewFabric(client.PeersConfig{MaxAttempts: *peerRetry, HedgeDelay: *hedge},
			strings.Split(*peers, ",")...)
		opts = append(opts, pubtac.WithPeers(fabric))
		if *shards > 0 {
			opts = append(opts, pubtac.WithShards(*shards))
		}
	}
	if *progress {
		opts = append(opts, pubtac.WithProgress(printProgress))
	}
	s := pubtac.NewSession(opts...)

	if *batch {
		if *multipath || *inputName != "" {
			log.Fatal("-batch analyzes default inputs across benchmarks; it cannot be combined with -multipath or -input")
		}
		names := ""
		if flagWasSet("bench") {
			names = *benchName
		}
		runBatch(ctx, s, names, *asJSON)
		return
	}

	b, err := pubtac.Benchmark(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	in := b.Default()
	if *inputName != "" {
		if in, err = b.Input(*inputName); err != nil {
			log.Fatal(err)
		}
	}

	if *multipath {
		m, err := s.AnalyzeMultiPath(ctx, b.Program, b.Inputs)
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			emitJSON(&pubtac.BatchResult{Jobs: []*pubtac.MultiResult{m}})
			return
		}
		fmt.Printf("benchmark %s: %d pubbed paths analyzed (Corollary 2)\n", b.Name, len(m.Results))
		for _, r := range m.Results {
			fmt.Printf("  %-10s Rpub=%-7d Rtac=%-7d R=%-7d pWCET@1e-12=%.0f\n",
				r.Input, r.RPub, r.RTac, r.R, r.PWCET(1e-12))
		}
		fmt.Printf("pWCET@1e-12 (min across paths) = %.0f cycles (path %s)\n",
			m.PWCET(1e-12), m.Best(1e-12).Input)
		return
	}

	res, err := s.AnalyzePath(ctx, b.Program, in)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		emitJSON(&pubtac.BatchResult{Jobs: []*pubtac.MultiResult{{Results: []*pubtac.Result{res}}}})
		return
	}
	printPath(res)
}

// runRemote runs the requested analysis on a pubtacd daemon. With -progress
// the job is submitted asynchronously and its events stream back over SSE
// before the stored result is fetched by content key; otherwise one waiting
// request does it all. Cache status is reported on stderr either way.
func runRemote(ctx context.Context, base, benchNames, inputName string, multipath, batch, progress, asJSON bool) {
	c := client.New(base)
	req := client.AnalyzeRequest{}
	if batch {
		if multipath || inputName != "" {
			log.Fatal("-batch analyzes default inputs across benchmarks; it cannot be combined with -multipath or -input")
		}
		names := strings.Split(benchNames, ",")
		if !flagWasSet("bench") {
			names = names[:0]
			for _, b := range pubtac.Benchmarks() {
				names = append(names, b.Name)
			}
		}
		for _, n := range names {
			req.Jobs = append(req.Jobs, client.JobSpec{Bench: n})
		}
	} else {
		req.Bench = benchNames
		req.Input = inputName
		req.Multipath = multipath
	}

	var body []byte
	var cached bool
	if progress {
		sub, err := c.Submit(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		cached = sub.Cached
		if !sub.Cached {
			if err := c.Events(ctx, sub.JobID, printProgress); err != nil {
				log.Fatal(err)
			}
		}
		var found bool
		if body, found, err = c.Result(ctx, sub.Key); err != nil {
			log.Fatal(err)
		} else if !found {
			log.Fatalf("job %s completed but key %s is not in the store", sub.JobID, sub.Key)
		}
	} else {
		var err error
		if body, cached, err = c.AnalyzeRaw(ctx, req); err != nil {
			log.Fatal(err)
		}
	}
	if cached {
		fmt.Fprintln(os.Stderr, "  [remote] served from the daemon's result store")
	}

	if asJSON {
		fmt.Println(string(body))
		return
	}
	res, err := pubtac.DecodeBatchResult(body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-10s %8s %8s %8s %10s %14s\n", "benchmark", "input", "Rpub", "Rtac", "R", "simulated", "pWCET@1e-12")
	for _, r := range res.All() {
		fmt.Printf("%-12s %-10s %8d %8d %8d %10d %14.0f\n",
			r.Program, r.Input, r.RPub, r.RTac, r.R, r.RunsUsed, r.PWCET(1e-12))
	}
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runBatch analyzes a set of benchmarks concurrently through the batch
// engine: all 11 when names is empty, otherwise the comma-separated list.
func runBatch(ctx context.Context, s *pubtac.Session, names string, asJSON bool) {
	var list []string
	if names != "" {
		list = strings.Split(names, ",")
	}
	jobs, err := pubtac.BenchmarkJobs(list...)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := s.AnalyzeBatch(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		emitJSON(batch)
		return
	}
	fmt.Printf("%-12s %8s %8s %8s %10s %14s\n", "benchmark", "Rpub", "Rtac", "R", "simulated", "pWCET@1e-12")
	for _, r := range batch.All() {
		fmt.Printf("%-12s %8d %8d %8d %10d %14.0f\n",
			r.Program, r.RPub, r.RTac, r.R, r.RunsUsed, r.PWCET(1e-12))
	}
}

func emitJSON(b *pubtac.BatchResult) {
	buf, err := b.JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(buf))
}

// progressMilestones keeps one 4096-run bucket per (path, phase) so the
// throttle fires on every milestone crossing even when the per-block run
// counts are not milestone-aligned (convergence rounds resume at arbitrary
// offsets). The session serializes progress callbacks, so a plain map is
// safe here.
var progressMilestones = map[string]int{}

// printProgress renders progress events; campaign workers emit them
// frequently, so only ~4096-run milestones and terminal events are shown.
// Warnings (e.g. an inadmissible i.i.d. battery at convergence) are always
// printed with their detail.
func printProgress(ev pubtac.ProgressEvent) {
	if ev.Phase == "warning" {
		fmt.Fprintf(os.Stderr, "  [%s/%s] warning: %s\n", ev.Program, ev.Input, ev.Note)
		return
	}
	if ev.Phase != "done" {
		key := ev.Program + "/" + ev.Input + "/" + ev.Phase
		bucket := ev.Done / 4096
		if progressMilestones[key] == bucket {
			return
		}
		progressMilestones[key] = bucket
	}
	fmt.Fprintf(os.Stderr, "  [%s/%s] %s %d/%d runs\n",
		ev.Program, ev.Input, ev.Phase, ev.Done, ev.Target)
	if ev.Phase == "done" && ev.Note != "" {
		// Terminal events report the estimation layer's peak retained
		// memory (bounded by the budget under -stream).
		fmt.Fprintf(os.Stderr, "  [%s/%s] %s\n", ev.Program, ev.Input, ev.Note)
	}
}

func printPath(r *pubtac.Result) {
	pa := r.Analysis()
	fmt.Printf("benchmark      %s (input %s)\n", r.Program, r.Input)
	fmt.Printf("PUB            %d constructs balanced, %d accesses inserted, code x%.2f\n",
		pa.PubReport.Constructs, pa.PubReport.InsertedAccesses, r.PubCodeGrowth)
	fmt.Printf("TAC            %d conflict groups in %d classes, baseline mean %.0f cycles\n",
		len(pa.TAC.Groups), len(pa.TAC.Classes), pa.TAC.BaselineMean)
	for i, c := range pa.TAC.Classes {
		fmt.Printf("  class %d: impact %.0f cycles, p=%.3g (%d groups) -> R=%d\n",
			i+1, c.Impact, c.Prob, c.Groups, c.Runs)
	}
	fmt.Printf("runs           Rpub=%d  Rtac=%d  R=%d (simulated %d)\n",
		r.RPub, r.RTac, r.R, r.RunsUsed)
	iid := pa.Full.IID
	fmt.Printf("diagnostics    runs-test p=%.3f  ljung-box p=%.3f  ks p=%.3f  CV=%.3f\n",
		iid.Runs.PValue, iid.LjungBox.PValue, iid.Identical.PValue, pa.Full.CV.CV)
	fmt.Println("pWCET curve (PUB+TAC):")
	for _, e := range []float64{3, 6, 9, 12} {
		p := math.Pow(10, -e)
		fmt.Printf("  @1e-%-3.0f %10.0f cycles\n", e, r.PWCET(p))
	}
	if r.RTac > r.RPub {
		fmt.Printf("note: TAC demands %dx more runs than plain MBPTA convergence\n",
			r.RTac/maxInt(r.RPub, 1))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
