package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline writes a BENCH_<pr>.json record of the given ns/op values
// into dir and returns its path.
func writeBaseline(t *testing.T, dir string, pr int, ns map[string]float64) string {
	t.Helper()
	rec := File{PR: pr}
	for name, v := range ns {
		rec.Benchmarks = append(rec.Benchmarks, Entry{Name: name, Iterations: 100, NsPerOp: v})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", pr))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGate: -check fails on a benchmark of the newest baseline that
// the run lacks, naming it; it ignores a name only an older baseline holds;
// and a 1.5x slowdown fails at threshold 1.40.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	// "BENCH_5.json" sorts after "BENCH_27.json" as a string, so the newest
	// baseline must be picked by number.
	old := writeBaseline(t, dir, 5, map[string]float64{"BenchmarkA": 100, "BenchmarkRetired": 50})
	newest := writeBaseline(t, dir, 27, map[string]float64{"BenchmarkA": 120, "BenchmarkB/sub": 200})
	for _, tc := range []struct {
		name string
		run  map[string]float64
		want string // a substring of the error; "" for a pass
	}{
		{"older-baseline name absent", map[string]float64{"BenchmarkA": 110, "BenchmarkB/sub": 210}, ""},
		{"name in no baseline", map[string]float64{"BenchmarkA": 110, "BenchmarkB/sub": 210, "BenchmarkNew": 1}, ""},
		{"newest-baseline name missing", map[string]float64{"BenchmarkA": 110},
			"BenchmarkB/sub: in the newest baseline " + newest + " but missing from the run"},
		{"slowdown 1.5x", map[string]float64{"BenchmarkA": 150, "BenchmarkB/sub": 200},
			"BenchmarkA: 150 ns/op vs best 100 ns/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := make(map[string]Entry, len(tc.run))
			for name, v := range tc.run {
				cur[name] = Entry{Name: name, Iterations: 100, NsPerOp: v}
			}
			err := compare(cur, []string{old, newest}, 1.40, "", 1.25)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
