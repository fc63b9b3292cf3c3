package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/mbpta"
	"pubtac/internal/serve"
	"pubtac/internal/stats"
)

// localShardSample computes the expected runs of a shard the way a worker
// does: the range collected locally, root derived from the program/input
// pair. This is the oracle every endpoint test compares against.
func localShardSample(t *testing.T, cfg pubtac.Config, prog, input string, original bool, lo, hi int) []float64 {
	t.Helper()
	b, err := pubtac.Benchmark(prog)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Program
	if !original {
		if p, _, err = pubtac.Transform(p); err != nil {
			t.Fatal(err)
		}
	}
	in, err := b.Input(input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	camp := mbpta.NewCampaign(res.Trace, cfg.Model)
	root := mbpta.Seed(prog+"/"+input) ^ cfg.SeedSalt
	runs, err := camp.CollectRangeCtx(context.Background(), lo, hi, root, cfg.MBPTA.Workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func postShard(t *testing.T, url string, spec pubtac.ShardSpec) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/shards", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestShardEndpointMatchesLocal: a valid shard spec comes back as a decodable
// full summary whose sample is exactly the runs a local collection of the
// same range produces.
func TestShardEndpointMatchesLocal(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	cfg := pubtac.NewSession(smallOpts()...).Config()
	spec := pubtac.ShardSpec{
		Config:  srv.ConfigFingerprint().String(),
		Program: "bs",
		Input:   "default",
		Root:    mbpta.Seed("bs/default") ^ cfg.SeedSalt,
		Lo:      100,
		Hi:      400,
	}

	got, err := client.New(ts.URL).CollectShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := localShardSample(t, cfg, "bs", "default", false, 100, 400)
	if len(got) != len(want) {
		t.Fatalf("shard returned %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("run %d: worker %v != local %v", spec.Lo+i, got[i], want[i])
		}
	}
	if st := srv.Stats(); st.Shards != 1 {
		t.Fatalf("statusz shards = %d after one shard, want 1", st.Shards)
	}

	// The reply is the runs frame of the range's runs, byte for byte.
	resp, body := postShard(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, stats.EncodeRuns(want)) {
		t.Fatal("worker reply is not the runs frame of its runs")
	}

	// The original-program arm resolves its own campaign.
	spec.Original = true
	spec.Lo, spec.Hi = 0, 50
	got, err = client.New(ts.URL).CollectShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want = localShardSample(t, cfg, "bs", "default", true, 0, 50)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("original run %d: worker %v != local %v", i, got[i], want[i])
		}
	}
}

// shardCase is one spec posted to POST /v1/shards and the status the
// worker must answer it with.
type shardCase struct {
	name string
	spec pubtac.ShardSpec
	code int
}

// shardCases returns a valid shard spec for srv and the refusals derived
// from it.
func shardCases(srv *serve.Server, cfg pubtac.Config) (ok pubtac.ShardSpec, refusals []shardCase) {
	ok = pubtac.ShardSpec{
		Config:  srv.ConfigFingerprint().String(),
		Program: "bs",
		Input:   "default",
		Root:    mbpta.Seed("bs/default") ^ cfg.SeedSalt,
		Lo:      0,
		Hi:      10,
	}
	mut := func(f func(*pubtac.ShardSpec)) pubtac.ShardSpec {
		s := ok
		f(&s)
		return s
	}
	return ok, []shardCase{
		{"foreign config", mut(func(s *pubtac.ShardSpec) { s.Config = "deadbeef" }), http.StatusConflict},
		{"wrong root", mut(func(s *pubtac.ShardSpec) { s.Root++ }), http.StatusConflict},
		{"negative lo", mut(func(s *pubtac.ShardSpec) { s.Lo = -1 }), http.StatusBadRequest},
		{"inverted range", mut(func(s *pubtac.ShardSpec) { s.Lo, s.Hi = 10, 0 }), http.StatusBadRequest},
		{"oversized range", mut(func(s *pubtac.ShardSpec) { s.Hi = s.Lo + 1<<23 }), http.StatusBadRequest},
		{"unknown program", mut(func(s *pubtac.ShardSpec) {
			s.Program = "no-such-bench"
			s.Root = mbpta.Seed("no-such-bench/default") ^ cfg.SeedSalt
		}), http.StatusNotFound},
		{"unknown input", mut(func(s *pubtac.ShardSpec) {
			s.Input = "no-such-input"
			s.Root = mbpta.Seed("bs/no-such-input") ^ cfg.SeedSalt
		}), http.StatusNotFound},
	}
}

// TestShardEndpointRefusals: a worker verifies a spec against its own
// configuration before simulating anything, so a mismatched coordinator
// degrades to local recomputation instead of silently merging foreign bytes.
func TestShardEndpointRefusals(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	ok, cases := shardCases(srv, pubtac.NewSession(smallOpts()...).Config())
	for _, tc := range cases {
		resp, body := postShard(t, ts.URL, tc.spec)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, bytes.TrimSpace(body), tc.code)
		}
	}
	if st := srv.Stats(); st.Shards != 0 {
		t.Fatalf("statusz shards = %d after refusals only, want 0", st.Shards)
	}

	// And the valid spec still goes through after all the refusals.
	resp, _ := postShard(t, ts.URL, ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid spec refused with %d", resp.StatusCode)
	}
}

// FuzzShardRequest posts fuzzed bodies to POST /v1/shards through
// Server.ServeHTTP, with no listener. The handler never panics and answers
// only 200, 400, 404 or 409, and a 200 carries exactly Hi−Lo runs, equal to
// a local collection of the same range. A body that decodes to a range of
// more than 4,096 runs the worker would accept is skipped, so each exec
// stays in milliseconds.
func FuzzShardRequest(f *testing.F) {
	store, err := serve.NewStore(f.TempDir(), 8)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: smallOpts()})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	cfg := pubtac.NewSession(smallOpts()...).Config()
	ok, cases := shardCases(srv, cfg)
	seeds := []pubtac.ShardSpec{ok}
	for _, c := range cases {
		seeds = append(seeds, c.spec)
	}
	for _, spec := range seeds {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"config": "` + ok.Config + `", "program": "bs", "lo": 0, "hi": 1`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var spec pubtac.ShardSpec
		if json.Unmarshal(body, &spec) == nil && spec.Runs() > 4096 && spec.Runs() <= serve.MaxShardRuns {
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			return
		default:
			t.Fatalf("%s: status %d (%s)", body, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		got, err := stats.DecodeRuns(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("%s: 200 reply does not decode: %v", body, err)
		}
		want := localShardSample(t, cfg, spec.Program, spec.Input, spec.Original, spec.Lo, spec.Hi)
		if len(got) != spec.Hi-spec.Lo || len(want) != len(got) {
			t.Fatalf("%s: %d runs served, %d collected locally, want %d", body, len(got), len(want), spec.Hi-spec.Lo)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: run %d: served %v, local %v", body, spec.Lo+i, got[i], want[i])
			}
		}
	})
}

// TestResultETagRevalidation: the content key doubles as a strong ETag, so a
// conditional GET revalidates without moving the body — or even touching the
// store.
func TestResultETagRevalidation(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := client.New(ts.URL)
	ctx := context.Background()

	req := client.AnalyzeRequest{Bench: "bs"}
	body, _, err := c.AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// The identical resubmission is a cache hit and names the content key.
	sub, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Cached || sub.Key == "" {
		t.Fatalf("resubmission not served from the store: %+v", sub)
	}

	get := func(inm string) *http.Response {
		req, err := http.NewRequest("GET", ts.URL+"/v1/results/"+sub.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Unconditional GET carries the ETag.
	resp := get("")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag != `"`+sub.Key+`"` {
		t.Fatalf("GET: status %d etag %q, want 200 with quoted key", resp.StatusCode, etag)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("GET body differs from the computed result")
	}

	// Matching validators — exact, weak, listed, wildcard — all 304 with the
	// ETag restated and no body.
	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		resp := get(inm)
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Fatalf("If-None-Match %q: status %d body %d bytes, want bare 304", inm, resp.StatusCode, len(b))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 for %q dropped the ETag", inm)
		}
	}

	// A stale validator moves the full body again.
	if resp := get(`"somethingelse"`); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale validator: status %d, want 200", resp.StatusCode)
	}
}

// TestCoordinatorWorkerBitIdentical is the distributed acceptance path in
// miniature: a coordinator daemon sharding over one worker daemon produces a
// byte-identical result body — and therefore the same content key — as a
// plain standalone daemon.
func TestCoordinatorWorkerBitIdentical(t *testing.T) {
	// Standalone reference daemon.
	_, plainTS := newTestServer(t, t.TempDir())

	// Worker daemon: same session options, serves POST /v1/shards.
	worker, workerTS := newTestServer(t, t.TempDir())

	// Coordinator daemon: same session options plus a fabric over the
	// worker.
	coord, coordTS := newDaemon(t, coordinatorOpts(smallOpts(), client.PeersConfig{}, 3, workerTS.URL))

	ctx := context.Background()
	req := client.AnalyzeRequest{Bench: "bs"}
	plain, _, err := client.New(plainTS.URL).AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := client.New(coordTS.URL).AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, sharded) {
		t.Fatal("coordinator result differs from the standalone daemon's bytes")
	}
	if st := worker.Stats(); st.Shards == 0 {
		t.Fatal("worker served no shards — the coordinator computed everything locally")
	}
	// The sharding knobs stay out of the fingerprint, so both daemons share
	// one cache key space.
	if got, want := coord.ConfigFingerprint(), worker.ConfigFingerprint(); got != want {
		t.Fatalf("coordinator fingerprint %s != worker fingerprint %s", got, want)
	}
}
