package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pubtac"
	"pubtac/internal/fault"
	"pubtac/internal/stats"
)

func testSpec(lo, hi int) pubtac.ShardSpec {
	return pubtac.ShardSpec{Program: "p", Input: "main", Lo: lo, Hi: hi}
}

// wantRuns is the deterministic sample a well-behaved fake worker returns
// for a spec — what serve would compute, minus the actual analysis.
func wantRuns(spec pubtac.ShardSpec) []float64 {
	runs := make([]float64, spec.Runs())
	for i := range runs {
		runs[i] = float64(spec.Lo+i) + 0.5
	}
	return runs
}

// shardHandler answers POST /v1/shards with a valid wire summary for the
// requested range after failing the first fail requests with status.
func shardHandler(t *testing.T, fail *atomic.Int64, status int, retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fail != nil && fail.Add(-1) >= 0 {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "injected", status)
			return
		}
		var spec pubtac.ShardSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("bad shard body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fs := stats.NewFullSummary(true)
		fs.Push(wantRuns(spec))
		b, err := stats.EncodeSummary(fs)
		if err != nil {
			t.Errorf("encoding summary: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(b)
	}
}

// Permanent errors (409 foreign fingerprint, 400 bad range) fail the shard
// on the first peer without walking the rest or retrying.
func TestPeersFailFastOnPermanentError(t *testing.T) {
	var hits atomic.Int64
	reject := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "campaign configuration fingerprint mismatch", http.StatusConflict)
	})
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(reject)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	p := NewFabric(PeersConfig{Clock: &fault.Fake{}}, urls...)
	_, err := p.CollectShard(context.Background(), testSpec(0, 8))
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("err = %v, want HTTP 409", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("peers saw %d requests, want exactly 1 (no failover, no retry)", got)
	}
	if st := p.Stats(); st.FailFast != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want FailFast=1 Retries=0", st)
	}
}

// 429 load sheds are retryable, and the server's Retry-After floors the
// backoff: the fabric waits at least what the shedding server asked for.
func TestPeersRetryHonorsRetryAfter(t *testing.T) {
	var fail atomic.Int64
	fail.Store(2)
	ts := httptest.NewServer(shardHandler(t, &fail, http.StatusTooManyRequests, "2"))
	defer ts.Close()

	fc := &fault.Fake{}
	p := NewFabric(PeersConfig{Clock: fc}, ts.URL)
	spec := testSpec(4, 12)
	runs, err := p.CollectShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, wantRuns(spec)) {
		t.Error("runs differ from the worker's sample")
	}
	if st := p.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	sleeps := fc.Sleeps()
	if len(sleeps) != 2 {
		t.Fatalf("backoff slept %d times (%v), want 2", len(sleeps), sleeps)
	}
	for i, d := range sleeps {
		if d != 2*time.Second {
			t.Errorf("sleep %d = %v, want the 2s Retry-After floor", i, d)
		}
	}
}

// The jittered backoff schedule is seeded: two fabrics with the same seed
// replay the same sleeps, and every sleep is equal-jittered in [d/2, d].
func TestPeersBackoffSeeded(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		var fail atomic.Int64
		fail.Store(2)
		ts := httptest.NewServer(shardHandler(t, &fail, http.StatusInternalServerError, ""))
		defer ts.Close()
		fc := &fault.Fake{}
		p := NewFabric(PeersConfig{Clock: fc, Policy: RetryPolicy{Seed: seed}}, ts.URL)
		if _, err := p.CollectShard(context.Background(), testSpec(0, 4)); err != nil {
			t.Fatal(err)
		}
		return fc.Sleeps()
	}
	a, b := schedule(7), schedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different backoff schedules: %v vs %v", a, b)
	}
	wantLo := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond}
	for i, d := range a {
		if d < wantLo[i] || d > 2*wantLo[i] {
			t.Errorf("sleep %d = %v, want equal jitter in [%v, %v]", i, d, wantLo[i], 2*wantLo[i])
		}
	}
	if c := schedule(8); reflect.DeepEqual(a, c) {
		t.Errorf("different seeds, identical backoff schedules: %v", a)
	}
}

// A hedged dispatch beats a straggling primary: after the hedge delay the
// shard races on the second peer, whose valid summary wins and cancels the
// straggler.
func TestPeersHedgeBeatsStraggler(t *testing.T) {
	straggler := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server watches the connection; then hang
		// until the fabric cancels this dispatch (losing the hedge race).
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer straggler.Close()
	healthy := httptest.NewServer(shardHandler(t, nil, 0, ""))
	defer healthy.Close()

	p := NewFabric(PeersConfig{
		Policy: RetryPolicy{HedgeDelay: 5 * time.Millisecond},
	}, straggler.URL, healthy.URL)
	spec := testSpec(0, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runs, err := p.CollectShard(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, wantRuns(spec)) {
		t.Error("hedge winner returned different bytes")
	}
	if st := p.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats = %+v, want Hedges=1 HedgeWins=1", st)
	}
}

// Consecutive failures open a peer's breaker: the fabric stops dispatching
// to it and the statusz snapshot says so.
func TestPeersBreakerOpens(t *testing.T) {
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(shardHandler(t, nil, 0, ""))
	defer good.Close()

	p := NewFabric(PeersConfig{
		Clock:  &fault.Fake{},
		Policy: RetryPolicy{BreakerThreshold: 2, MaxAttempts: 3},
	}, bad.URL, good.URL)
	for i := 0; i < 4; i++ {
		if _, err := p.CollectShard(context.Background(), testSpec(i, i+4)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.BreakerOpens < 1 {
		t.Errorf("BreakerOpens = %d, want >= 1", st.BreakerOpens)
	}
	if st.Peers[0].Breaker != "open" {
		t.Errorf("bad peer breaker = %q, want open", st.Peers[0].Breaker)
	}
	// With the breaker open every further shard goes straight to the
	// healthy peer.
	before := badHits.Load()
	for i := 0; i < 4; i++ {
		if _, err := p.CollectShard(context.Background(), testSpec(i, i+4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := badHits.Load(); got != before {
		t.Errorf("open-breaker peer still saw %d new requests", got-before)
	}
}

// TuneRetry applies the session-level knobs without rebuilding the fabric.
func TestPeersTuneRetry(t *testing.T) {
	p := NewFabric(PeersConfig{}, "http://127.0.0.1:1")
	p.TuneRetry(7, 42*time.Millisecond)
	if p.policy.MaxAttempts != 7 || p.policy.HedgeDelay != 42*time.Millisecond {
		t.Errorf("policy = %+v", p.policy)
	}
	p.TuneRetry(-1, -1) // sentinels: leave both untouched
	if p.policy.MaxAttempts != 7 || p.policy.HedgeDelay != 42*time.Millisecond {
		t.Errorf("sentinel overwrote policy: %+v", p.policy)
	}
	p.TuneRetry(-1, 0) // zero hedge explicitly disables
	if p.policy.HedgeDelay != 0 {
		t.Errorf("HedgeDelay = %v, want 0", p.policy.HedgeDelay)
	}
}
