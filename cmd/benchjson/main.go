// Command benchjson turns `go test -bench` output into the repository's
// BENCH_N.json records and gates CI on benchmark regressions against the
// committed baselines. It replaces the awk one-liner the bench job used to
// carry, which broke on sub-benchmark names, -cpu suffixes and fractional
// ns/op values.
//
// Emit a record:
//
//	go test -run '^$' -bench ... . | tee bench.txt
//	go run ./cmd/benchjson -pr 3 -out BENCH_3.json bench.txt
//
// Gate on regressions (exit 1 when any benchmark is slower than the best
// committed baseline by more than the threshold factor):
//
//	go run ./cmd/benchjson -check -threshold 1.40 bench.txt BENCH_*.json
//
// The threshold is deliberately generous: CI runners are noisy and the
// committed baselines may come from different hardware, so the gate is
// meant to catch algorithmic regressions (2x, 10x), not percent-level
// drift. Benchmarks present in the run but absent from every baseline are
// reported and skipped. A benchmark of the newest baseline (the highest
// BENCH_<N>.json given, the one the benchgate analyzer reads) that the run
// lacks fails the gate by name; names only older baselines hold are ignored
// (they may have been renamed or retired).
//
// Baselines can carry a runner label (-runner on emit). When -check also
// names a runner, benchmarks with at least one matching-runner baseline are
// gated against the best of THOSE at the tighter -runner-threshold
// (same-hardware comparisons don't need the cross-hardware slack); the
// generous global gate remains the fallback for benchmarks no same-runner
// baseline covers yet.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// File is the BENCH_N.json schema, unchanged from the records the CI
// artifacts have accumulated since PR 1.
type File struct {
	PR         int     `json:"pr"`
	Runner     string  `json:"runner,omitempty"` // hardware label; enables the tighter same-runner gate
	Benchmarks []Entry `json:"benchmarks"`
}

// Entry is one benchmark result.
type Entry struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

func main() {
	var (
		check     = flag.Bool("check", false, "compare a bench run against baseline JSON files instead of emitting JSON")
		threshold = flag.Float64("threshold", 1.40, "regression factor that fails -check (current > best_baseline * threshold)")
		pr        = flag.Int("pr", 0, "PR number recorded in the emitted JSON")
		out       = flag.String("out", "", "output path for the emitted JSON (default stdout)")
		runner    = flag.String("runner", "", "runner label: recorded on emit; on -check, gates against matching-runner baselines at -runner-threshold where they exist")
		runnerThr = flag.Float64("runner-threshold", 1.25, "regression factor against same-runner baselines (used only with -runner)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fatalf("usage: benchjson [-check [-threshold f] bench.txt BASELINE.json...] | [-pr n [-out f] bench.txt]")
	}

	cur, err := parseBenchFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	if len(cur) == 0 {
		fatalf("%s: no benchmark result lines found", flag.Arg(0))
	}

	if *check {
		if err := compare(cur, flag.Args()[1:], *threshold, *runner, *runnerThr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := emit(cur, *pr, *runner, *out); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(2)
}

// cpuSuffix matches the -GOMAXPROCS suffix go test appends to benchmark
// names (e.g. BenchmarkCampaign1k-4). It is stripped so results compare
// across machines with different core counts.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchFile extracts ns/op results from `go test -bench` output. For
// names appearing several times (e.g. -count > 1) the minimum ns/op is
// kept: the fastest observation is the least noisy estimate of the true
// cost, which is the generous choice on both sides of the gate.
func parseBenchFile(path string) (map[string]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	results := make(map[string]Entry)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		e, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := results[e.Name]; !seen || e.NsPerOp < prev.NsPerOp {
			results[e.Name] = e
		}
	}
	return results, sc.Err()
}

// parseBenchLine parses one result line:
//
//	BenchmarkCampaign1k-4   10094   116255 ns/op   [more metric pairs...]
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	// Scan the (value, unit) metric pairs for ns/op; -benchmem and custom
	// metrics add more pairs after it.
	for i := 2; i+1 < len(fields); i += 2 {
		if fields[i+1] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		return Entry{
			Name:       cpuSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}, true
	}
	return Entry{}, false
}

// emit writes the run as a BENCH_N.json record, names sorted for stable
// diffs.
func emit(cur map[string]Entry, pr int, runner, out string) error {
	rec := File{PR: pr, Runner: runner, Benchmarks: make([]Entry, 0, len(cur))}
	//pubtac:nondeterministic collection order is erased by the sort-by-name below
	for _, e := range cur {
		rec.Benchmarks = append(rec.Benchmarks, e)
	}
	sort.Slice(rec.Benchmarks, func(i, j int) bool {
		return rec.Benchmarks[i].Name < rec.Benchmarks[j].Name
	})
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// baselineRE matches a baseline's file name; N is the PR number, so the
// highest one is the newest baseline.
var baselineRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// compare gates cur against the best (minimum ns/op) value per benchmark
// across the baseline files — preferring same-runner baselines at the
// tighter runnerThr when runner is set and a matching baseline exists. It
// prints a line per benchmark and returns an error listing the benchmarks of
// the newest baseline the run lacks and the regressions, if any.
func compare(cur map[string]Entry, baselinePaths []string, threshold float64, runner string, runnerThr float64) error {
	if len(baselinePaths) == 0 {
		return fmt.Errorf("benchjson: -check needs at least one baseline JSON file")
	}
	best := make(map[string]float64)        // name -> lowest baseline ns/op
	source := make(map[string]string)       // name -> file providing it
	bestRunner := make(map[string]float64)  // same, restricted to matching-runner baselines
	sourceRunner := make(map[string]string) //
	newest, newestN := "", -1
	for _, path := range baselinePaths {
		if m := baselineRE.FindStringSubmatch(filepath.Base(path)); m != nil {
			if n, _ := strconv.Atoi(m[1]); n > newestN {
				newest, newestN = path, n
			}
		}
	}
	var failures []string
	for _, path := range baselinePaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("benchjson: %v", err)
		}
		var rec File
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("benchjson: %s: %v", path, err)
		}
		for _, e := range rec.Benchmarks {
			name := cpuSuffix.ReplaceAllString(e.Name, "")
			if _, ok := cur[name]; !ok && path == newest {
				failures = append(failures, fmt.Sprintf("%s: in the newest baseline %s but missing from the run", name, path))
			}
			if b, ok := best[name]; !ok || e.NsPerOp < b {
				best[name] = e.NsPerOp
				source[name] = path
			}
			if runner != "" && rec.Runner == runner {
				if b, ok := bestRunner[name]; !ok || e.NsPerOp < b {
					bestRunner[name] = e.NsPerOp
					sourceRunner[name] = path
				}
			}
		}
	}

	names := make([]string, 0, len(cur))
	//pubtac:nondeterministic keys are sorted immediately below
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		e := cur[name]
		b, ok := best[name]
		if !ok {
			fmt.Printf("%-60s %12.0f ns/op  (new: no baseline, skipped)\n", name, e.NsPerOp)
			continue
		}
		gate, src, kind := threshold, source[name], "best"
		if br, okr := bestRunner[name]; okr {
			// Same-hardware history: tighter gate, same-runner best.
			b, gate, src, kind = br, runnerThr, sourceRunner[name], "runner best"
		}
		ratio := e.NsPerOp / b
		verdict := "ok"
		if ratio > gate {
			verdict = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs %s %.0f ns/op (%s) = %.2fx > %.2fx",
					name, e.NsPerOp, kind, b, src, ratio, gate))
		}
		fmt.Printf("%-60s %12.0f ns/op  %5.2fx of %s (%s)  %s\n",
			name, e.NsPerOp, ratio, kind, src, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchjson: %d gate failure(s) (threshold %.2fx):\n  %s",
			len(failures), threshold, strings.Join(failures, "\n  "))
	}
	return nil
}
