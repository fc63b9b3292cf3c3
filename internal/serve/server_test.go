package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/serve"
)

// smallOpts keeps campaigns in the tens of milliseconds (the sizing every
// facade test uses).
func smallOpts() []pubtac.Option {
	cfg := pubtac.NewSession().Config()
	cfg.MBPTA.InitialRuns = 200
	cfg.MBPTA.Increment = 200
	cfg.MBPTA.MaxRuns = 2000
	cfg.CampaignCap = 3000
	return []pubtac.Option{pubtac.WithConfig(cfg)}
}

func newTestServer(t *testing.T, dir string) (*serve.Server, *httptest.Server) {
	t.Helper()
	store, err := serve.NewStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: smallOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestServerCacheHitBitIdentical is the acceptance path: the second identical
// submission is served from the store with a byte-identical body and no
// re-simulation, and a restarted daemon over the same directory still serves
// it — from disk.
func TestServerCacheHitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	c := client.New(ts.URL)
	ctx := context.Background()
	req := client.AnalyzeRequest{Bench: "bs"}

	first, cached, err := c.AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first submission reported cached")
	}
	second, cached, err := c.AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second identical submission not served from the store")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached body differs from the computed one")
	}
	if st := srv.Stats(); st.Computed != 1 {
		t.Fatalf("computed = %d analyses for two identical submissions", st.Computed)
	}

	// Decoded form is a valid, schema-checked batch result.
	res, _, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if all := res.All(); len(all) != 1 || all[0].Program != "bs" || all[0].PWCET(1e-12) <= 0 {
		t.Fatalf("implausible decoded result: %+v", res)
	}

	// Restart: a new store + server over the same directory. The memory tier
	// is gone; the result must come back from disk, still bit-identical,
	// without any computation.
	ts.Close()
	srv.Close()
	store2, err := serve.NewStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := serve.New(serve.Options{Store: store2, SessionOptions: smallOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	resp, err := http.Post(ts2.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"bench": "bs", "wait": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(client.HeaderCache) != "hit" {
		t.Fatal("restarted daemon did not serve from its store")
	}
	if got := resp.Header.Get(client.HeaderTier); got != serve.TierDisk {
		t.Fatalf("restarted daemon served from tier %q, want disk", got)
	}
	if !bytes.Equal(body.Bytes(), first) {
		t.Fatal("restarted daemon's body differs from the original")
	}
	if st := srv2.Stats(); st.Computed != 0 {
		t.Fatalf("restarted daemon computed %d analyses", st.Computed)
	}
}

// TestServerConcurrentIdenticalComputeOnce: N identical waiting submissions
// race; the singleflight table must collapse them onto one computation, and
// every response must carry the same bytes.
func TestServerConcurrentIdenticalComputeOnce(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	req := client.AnalyzeRequest{Bench: "cnt"}

	const n = 4
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = c.AnalyzeRaw(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("submission %d received different bytes", i)
		}
	}
	if st := srv.Stats(); st.Computed != 1 {
		t.Fatalf("computed = %d analyses for %d identical submissions", st.Computed, n)
	}
}

// TestServerKeyMatchesClientDerivation: a client holding the program and the
// daemon's configuration derives the same content key the daemon uses, and
// can probe /v1/results/{key} directly.
func TestServerKeyMatchesClientDerivation(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	ctx := context.Background()

	body, _, err := c.AnalyzeRaw(ctx, client.AnalyzeRequest{Bench: "bs"})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	jobKey, err := pubtac.Job{Program: bench.Program, Inputs: []pubtac.Input{bench.Default()}}.Key(0)
	if err != nil {
		t.Fatal(err)
	}
	key := pubtac.AnalysisKey(srv.ConfigFingerprint(), jobKey)
	stored, found, err := c.Result(ctx, key.String())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("client-derived key not found in the store")
	}
	if !bytes.Equal(stored, body) {
		t.Fatal("result fetched by derived key differs")
	}
	if _, found, err := c.Result(ctx, pubtac.Fingerprint{}.String()); err != nil || found {
		t.Fatalf("zero key: found=%v err=%v, want clean not-found", found, err)
	}
}

// TestServerKeyTable: the keys the daemon derives from its registry table
// are the keys Job.Key and AnalysisKey give over fresh registry instances,
// for every single-input request, every multipath request and a batch that
// names a benchmark twice, under a non-zero seed salt.
func TestServerKeyTable(t *testing.T) {
	store, err := serve.NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: append(smallOpts(), pubtac.WithSeed(seed))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := client.New(ts.URL)
	fresh := func(name string) *pubtac.Bench {
		t.Helper()
		b, err := pubtac.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(req client.AnalyzeRequest, jobs ...pubtac.Job) {
		t.Helper()
		keys := make([]pubtac.Fingerprint, len(jobs))
		for i, j := range jobs {
			k, err := j.Key(seed)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = k
		}
		sub, err := c.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if want := pubtac.AnalysisKey(srv.ConfigFingerprint(), keys...); sub.Key != want.String() {
			t.Errorf("%+v: daemon key %s, fresh-instance key %s", req, sub.Key, want)
		}
	}

	singles, multis := 0, 0
	for _, b := range pubtac.Benchmarks() {
		for _, in := range b.Inputs {
			f := fresh(b.Name)
			fin, err := f.Input(in.Name)
			if err != nil {
				t.Fatal(err)
			}
			check(client.AnalyzeRequest{Bench: b.Name, Input: in.Name},
				pubtac.Job{Program: f.Program, Inputs: []pubtac.Input{fin}})
			singles++
		}
		if len(b.Inputs) > 1 {
			f := fresh(b.Name)
			check(client.AnalyzeRequest{Bench: b.Name, Multipath: true}, pubtac.Job{Program: f.Program, Inputs: f.Inputs})
			multis++
		}
	}
	if singles != 33 || multis != 6 {
		t.Fatalf("checked %d single-input and %d multipath requests, want 33 and 6", singles, multis)
	}

	bs1, cnt, bs2 := fresh("bs"), fresh("cnt"), fresh("bs")
	v3, err := bs1.Input("v3")
	if err != nil {
		t.Fatal(err)
	}
	check(client.AnalyzeRequest{Jobs: []client.JobSpec{
		{Bench: "bs", Inputs: []string{"v3"}}, {Bench: "cnt"}, {Bench: "bs", Multipath: true},
	}},
		pubtac.Job{Program: bs1.Program, Inputs: []pubtac.Input{v3}},
		pubtac.Job{Program: cnt.Program, Inputs: []pubtac.Input{cnt.Default()}},
		pubtac.Job{Program: bs2.Program, Inputs: bs2.Inputs})
}

// TestServerConcurrentColdAndHits: two cold analyses of one benchmark run on
// the registry table's shared program while hits on the same benchmark
// resolve through the table. CI runs it under the race detector.
func TestServerConcurrentColdAndHits(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	ctx := context.Background()
	warm := client.AnalyzeRequest{Bench: "bs"}
	want, _, err := c.AnalyzeRaw(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}

	cold := []client.AnalyzeRequest{{Bench: "bs", Input: "v3"}, {Bench: "bs", Input: "v5"}}
	errs := make([]error, len(cold))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range cold {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cached, err := c.AnalyzeRaw(ctx, req)
			if err == nil && cached {
				err = fmt.Errorf("cold request %+v served from the store", req)
			}
			errs[i] = err
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for hits := 0; ; hits++ {
		select {
		case <-done:
			if hits == 0 {
				t.Fatal("no hit was served while the cold requests ran")
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if st := srv.Stats(); st.Computed != 3 {
				t.Fatalf("computed = %d analyses, want 3 (one warm-up, two cold)", st.Computed)
			}
			return
		default:
		}
		body, cached, err := c.AnalyzeRaw(ctx, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !cached || !bytes.Equal(body, want) {
			t.Fatalf("hit %d: cached=%v, body equal=%v", hits, cached, bytes.Equal(body, want))
		}
	}
}

// TestServerHitRunsNoPipeline: a memory hit resolves its request through the
// registry table and reads the store, with no IR build, PUB, Exec or trace
// hash. Deriving a key through the pipeline costs hundreds of allocations
// per input vector, so the bound of 100 catches any of it on the hit path.
func TestServerHitRunsNoPipeline(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	for _, body := range []string{
		`{"bench": "bs", "multipath": true, "wait": true}`,
		`{"bench": "matmult", "wait": true}`,
	} {
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
			return rec
		}
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("%s: warm-up status %d: %s", body, rec.Code, rec.Body)
		}
		if rec := post(); rec.Header().Get(client.HeaderCache) != "hit" || rec.Header().Get(client.HeaderTier) != serve.TierMem {
			t.Fatalf("%s: second request not a memory hit (headers %v)", body, rec.Header())
		}
		if allocs := testing.AllocsPerRun(50, func() { post() }); allocs > 100 {
			t.Errorf("%s: a memory hit took %.0f allocations, want at most 100", body, allocs)
		}
	}
}

// TestServerSubmitEventsResult drives the asynchronous path: submit, stream
// progress over SSE (with replay), then fetch the stored result by key.
func TestServerSubmitEventsResult(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, client.AnalyzeRequest{Bench: "bs"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached || sub.JobID == "" || sub.Key == "" {
		t.Fatalf("fresh submission = %+v", sub)
	}
	var events []pubtac.ProgressEvent
	if err := c.Events(ctx, sub.JobID, func(ev pubtac.ProgressEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events streamed")
	}
	last := events[len(events)-1]
	if last.Phase != "done" {
		t.Fatalf("last event phase = %q, want done", last.Phase)
	}
	// Replay: a second subscriber after completion sees the full history.
	var replayed int
	if err := c.Events(ctx, sub.JobID, func(pubtac.ProgressEvent) { replayed++ }); err != nil {
		t.Fatal(err)
	}
	if replayed != len(events) {
		t.Fatalf("replayed %d events, live stream had %d", replayed, len(events))
	}

	body, found, err := c.Result(ctx, sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !found || len(body) == 0 {
		t.Fatal("completed job's result not in the store")
	}
	st, err := c.JobStatus(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Key != sub.Key || st.Events != len(events) {
		t.Fatalf("job status = %+v", st)
	}

	// Resubmission of the same request short-circuits: cached, no job.
	again, err := c.Submit(ctx, client.AnalyzeRequest{Bench: "bs"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.JobID != "" || again.Key != sub.Key {
		t.Fatalf("resubmission = %+v, want cached with the same key", again)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, body := range map[string]string{
		"empty":           `{}`,
		"mixed forms":     `{"bench": "bs", "jobs": [{"bench": "crc"}]}`,
		"input+multipath": `{"bench": "bs", "input": "v1", "multipath": true}`,
		"unknown bench":   `{"bench": "nope"}`,
		"unknown input":   `{"bench": "bs", "input": "nope"}`,
		"not json":        `{"bench"`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/jobs/zzz"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := get("/v1/results/nothex"); code != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", code)
	}
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", code)
	}
	if code := get("/v1/statusz"); code != http.StatusOK {
		t.Errorf("statusz: status %d, want 200", code)
	}
}

// TestServerMultipathAndBatchForms: the two request forms resolve, compute
// and cache independently (different keys), and the batch form caches the
// whole batch as one entry.
func TestServerMultipathAndBatchForms(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	ctx := context.Background()

	multi, _, err := c.Analyze(ctx, client.AnalyzeRequest{Bench: "bs", Multipath: true})
	if err != nil {
		t.Fatal(err)
	}
	bench, _ := pubtac.Benchmark("bs")
	if got := len(multi.Jobs[0].Results); got != len(bench.Inputs) {
		t.Fatalf("multipath analyzed %d paths, want %d", got, len(bench.Inputs))
	}

	batch, _, err := c.Analyze(ctx, client.AnalyzeRequest{Jobs: []client.JobSpec{
		{Bench: "bs"}, {Bench: "cnt"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 || batch.Jobs[0].Results[0].Program != "bs" ||
		batch.Jobs[1].Results[0].Program != "cnt" {
		t.Fatalf("batch form: %+v", batch.Jobs)
	}
	_, cached, err := c.AnalyzeRaw(ctx, client.AnalyzeRequest{Jobs: []client.JobSpec{
		{Bench: "bs"}, {Bench: "cnt"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("identical batch not served from the store")
	}
	if st := srv.Stats(); st.Computed != 2 {
		t.Fatalf("computed = %d, want 2 (multipath + batch)", st.Computed)
	}
}
