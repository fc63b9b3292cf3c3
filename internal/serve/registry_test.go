package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pubtac"
	"pubtac/client"
)

// TestJobProgressLogBounded: a paper-scale path reports one event per
// 64-run block, and a job keeps its log after it finishes, so the log keeps
// only the events that open a series, raise its percentage, or reach its
// target — plus every warning.
func TestJobProgressLogBounded(t *testing.T) {
	const target = 84_873
	j := &job{notify: make(chan struct{})}
	blocks := 0
	for done := 64; ; done += 64 {
		if done > target {
			done = target
		}
		j.emit(pubtac.ProgressEvent{Program: "ns", Input: "default", Phase: "campaign", Done: done, Target: target})
		blocks++
		if done == target {
			break
		}
	}
	if blocks != 1327 {
		t.Fatalf("fed %d block events, want 1327", blocks)
	}
	j.emit(pubtac.ProgressEvent{Program: "ns", Input: "default", Phase: "warning", Done: target, Target: target, Note: "w"})

	var progress []pubtac.ProgressEvent
	warnings := 0
	for _, ev := range j.events {
		switch ev.Phase {
		case "campaign":
			progress = append(progress, ev)
		case "warning":
			warnings++
		}
	}
	if len(progress) > 101 {
		t.Fatalf("logged %d progress events for one series, want at most 101", len(progress))
	}
	if first, last := progress[0], progress[len(progress)-1]; first.Done != 64 || last.Done != target {
		t.Fatalf("logged Done %d..%d, want the first (64) and the last (%d) block", first.Done, last.Done, target)
	}
	if warnings != 1 {
		t.Fatalf("logged %d warnings, want 1", warnings)
	}
}

// FuzzAnalyzeRequest drives POST /v1/analyze bodies through request
// decoding, table resolution and key derivation, never through an analysis.
// Resolution and derivation never panic; a resolved request's key is the
// one Job.Key and AnalysisKey give over fresh registry instances; and a
// body that does not resolve gets a 400 from the handler and starts no job.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"bench": "bs", "jobs": [{"bench": "crc"}]}`,
		`{"bench": "bs", "input": "v1", "multipath": true}`,
		`{"bench": "nope"}`,
		`{"bench": "bs", "input": "nope"}`,
		`{"bench"`,
		`{"bench": "matmult", "wait": true}`,
		`{"bench": "bs", "input": "v3"}`,
		`{"bench": "cnt", "multipath": true}`,
		`{"jobs": [{"bench": "bs", "inputs": ["v1", "v15"]}, {"bench": "janne", "multipath": true}, {"bench": "bs"}]}`,
	} {
		f.Add([]byte(body))
	}
	store, err := NewStore(f.TempDir(), 8)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Options{Store: store, SessionOptions: []pubtac.Option{pubtac.WithScale(0.02), pubtac.WithSeed(7)}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()

	f.Fuzz(func(t *testing.T, body []byte) {
		var req client.AnalyzeRequest
		if json.Unmarshal(body, &req) == nil {
			jobs, err := s.table.resolve(req)
			if err == nil {
				got := s.keyOf(jobs)
				if want, ok := freshKey(t, req, s.seedSalt, s.cfgFP); ok && got != want {
					t.Fatalf("%s: table key %s, fresh-instance key %s", body, got, want)
				}
				return
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(string(body))))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, rec.Code)
		}
		if st := s.Stats(); st.Computed != 0 || st.Jobs != 0 {
			t.Fatalf("%s: a rejected request started a job (%+v)", body, st)
		}
	})
}

// freshKey derives a request's key the way the daemon did before the
// registry table: resolve the request over fresh registry instances, then
// Job.Key and AnalysisKey. ok is false for a request too large to check
// cheaply.
func freshKey(t *testing.T, req client.AnalyzeRequest, seed uint64, cfg pubtac.Fingerprint) (key pubtac.Fingerprint, ok bool) {
	t.Helper()
	specs := req.Jobs
	if req.Bench != "" {
		specs = []client.JobSpec{{Bench: req.Bench, Multipath: req.Multipath}}
		if req.Input != "" {
			specs[0].Inputs = []string{req.Input}
		}
	}
	if len(specs) > 4 {
		return key, false
	}
	var keys []pubtac.Fingerprint
	paths := 0
	for _, spec := range specs {
		b, err := pubtac.Benchmark(spec.Bench)
		if err != nil {
			t.Fatalf("the table resolved %q, the registry does not: %v", spec.Bench, err)
		}
		j := pubtac.Job{Program: b.Program}
		switch {
		case spec.Multipath:
			j.Inputs = b.Inputs
		case len(spec.Inputs) > 0:
			for _, name := range spec.Inputs {
				in, err := b.Input(name)
				if err != nil {
					t.Fatalf("the table resolved %s(%q), the registry does not: %v", spec.Bench, name, err)
				}
				j.Inputs = append(j.Inputs, in)
			}
		default:
			j.Inputs = []pubtac.Input{b.Default()}
		}
		if paths += len(j.Inputs); paths > 16 {
			return key, false
		}
		k, err := j.Key(seed)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return pubtac.AnalysisKey(cfg, keys...), true
}
