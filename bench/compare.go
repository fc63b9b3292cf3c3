package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of Compare.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row is Compare's judgement of one metric on one workload.
type Row struct {
	Workload, Metric, Unit string
	// Base and Head are each side's first quartile, median and third
	// quartile, over Runs[0] and Runs[1] runs.
	Base, Head [3]float64
	Runs       [2]int
	// Won is the share of pairs (base run k, head run k) in which the head
	// run reads better; ties count for neither side.
	Won     float64
	Verdict string
}

// LoadReports reads the untraced run reports (pubtacbench run -out) in
// dir, in file name order, skipping any other JSON there.
func LoadReports(dir string) ([]*Report, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []*Report
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r Report
		if json.Unmarshal(b, &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		out = append(out, &r)
	}
	return out, nil
}

// minPairs is how many pairs of runs a gain needs.
const minPairs = 10

// Compare judges head runs against base runs, each workload separately,
// on every end-to-end metric both sides report. Run k of each side forms
// pair k, so the runs should alternate sides. A metric's tolerance is its
// bound times the base median, or its floor when that is larger:
//
//   - unresolved: the base runs spread (interquartile range) wider than
//     the tolerance, unless every head run reads better than every base
//     run, which is improved;
//   - improved: over at least minPairs pairs, the head wins at least nine
//     tenths of them and its median differs from the base median, in the
//     better direction, by more than the base interquartile range;
//   - regressed: the head median is worse than the base median by more
//     than the tolerance;
//   - unchanged: anything else.
//
// A head with more failures than the base (failed ops, and runs that
// failed their end-of-run checks) regresses error_rate whatever its median,
// and claims no gain: an improved verdict becomes unresolved.
func Compare(base, head []*Report) []Row {
	var rows []Row
	for _, w := range Workloads() {
		b, h := byWorkload(base, w), byWorkload(head, w)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		moreFailures := failures(h) > failures(b)
		for _, m := range append(append([]Metric(nil), EndToEnd...), Detail...) {
			bv, hv := values(b, m.Name), values(h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			row := Row{Workload: w, Metric: m.Name, Unit: m.Unit, Runs: [2]int{len(bv), len(hv)}}
			row.Base[0], row.Base[1], row.Base[2] = quartiles(bv)
			row.Head[0], row.Head[1], row.Head[2] = quartiles(hv)
			row.Won, row.Verdict = judge(m, bv, hv)
			switch {
			case moreFailures && m.Name == "error_rate":
				row.Verdict = Regressed
			case moreFailures && row.Verdict == Improved:
				row.Verdict = Unresolved
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// failures counts the failed ops of runs, plus one for each run that failed
// only its end-of-run checks.
func failures(rs []*Report) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
		if !r.Correct && r.Failed == 0 {
			n++
		}
	}
	return n
}

func byWorkload(rs []*Report, w string) []*Report {
	var out []*Report
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*Report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge returns the share of pairs the head won and the verdict.
func judge(m Metric, base, head []float64) (float64, string) {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs, won := min(len(base), len(head)), 0
	for k := 0; k < pairs; k++ {
		if better(head[k], base[k]) {
			won++
		}
	}
	share := float64(won) / float64(pairs)

	bq1, bm, bq3 := quartiles(base)
	_, hm, _ := quartiles(head)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	worse := hm - bm
	if m.Better == "higher" {
		worse = -worse
	}
	tol := max(m.Bound*math.Abs(bm), m.Floor)
	enough := pairs >= minPairs
	switch {
	case bq3-bq1 > tol:
		if enough && allBetter {
			return share, Improved
		}
		return share, Unresolved
	case enough && share >= 0.9 && worse < 0 && -worse > bq3-bq1:
		return share, Improved
	case worse > tol:
		return share, Regressed
	}
	return share, Unchanged
}
