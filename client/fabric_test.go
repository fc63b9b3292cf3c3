package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
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

// fakeClockFabric is NewFabric on injected time: backoff sleeps return at
// once and are recorded on the returned clock.
func fakeClockFabric(cfg PeersConfig, urls ...string) (*Peers, *fault.Fake) {
	p := NewFabric(cfg, urls...)
	fc := &fault.Fake{}
	p.clock = fc
	return p, fc
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
	p, _ := fakeClockFabric(PeersConfig{}, urls...)
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

	p, fc := fakeClockFabric(PeersConfig{}, ts.URL)
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

// The jittered backoff schedule is seeded: every fabric replays the same
// sleeps, equal-jittered in [d/2, d], and the seed is the one fabrics have
// always used, so the pinned schedule does not move.
func TestPeersBackoffSeeded(t *testing.T) {
	schedule := func() []time.Duration {
		var fail atomic.Int64
		fail.Store(2)
		ts := httptest.NewServer(shardHandler(t, &fail, http.StatusInternalServerError, ""))
		defer ts.Close()
		p, fc := fakeClockFabric(PeersConfig{}, ts.URL)
		if _, err := p.CollectShard(context.Background(), testSpec(0, 4)); err != nil {
			t.Fatal(err)
		}
		return fc.Sleeps()
	}
	a, b := schedule(), schedule()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two fabrics, different backoff schedules: %v vs %v", a, b)
	}
	want := []time.Duration{45614174, 58045721}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("backoff schedule = %v, want the pinned %v", a, want)
	}
	wantLo := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond}
	for i, d := range a {
		if d < wantLo[i] || d > 2*wantLo[i] {
			t.Errorf("sleep %d = %v, want equal jitter in [%v, %v]", i, d, wantLo[i], 2*wantLo[i])
		}
	}
}

// Peer URLs are trimmed: a space after the comma of a -peers list names the
// second worker, not a peer whose every request fails to build. Shards
// round-robin over both workers and none is retried.
func TestNewFabricTrimsPeerURLs(t *testing.T) {
	var hits [2]atomic.Int64
	var urls []string
	for i := range hits {
		h := shardHandler(t, nil, 0, "")
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			h(w, r)
		}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	p, _ := fakeClockFabric(PeersConfig{}, strings.Split(" "+urls[0]+", "+urls[1]+" ,", ",")...)
	if got := p.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2 peers", got)
	}
	for i := 0; i < 4; i++ {
		spec := testSpec(4*i, 4*i+4)
		runs, err := p.CollectShard(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, wantRuns(spec)) {
			t.Errorf("shard %d: runs differ from the worker's sample", i)
		}
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 2 {
			t.Errorf("worker %d served %d shards, want 2", i, got)
		}
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

	p := NewFabric(PeersConfig{HedgeDelay: 5 * time.Millisecond}, straggler.URL, healthy.URL)
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

	p, _ := fakeClockFabric(PeersConfig{MaxAttempts: 3}, bad.URL, good.URL)
	p.threshold = 2
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

// stragglerServer holds every shard request until the fabric cancels it. It
// drains the body first: otherwise the server never watches the connection,
// never sees the cancel, and Close hangs.
func stragglerServer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
}

// wantRetryable503 asserts that a shard round ended on the failing peer's
// retryable 503, not on the caller's deadline.
func wantRetryable503(t *testing.T, err error) {
	t.Helper()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || permanentErr(err) {
		t.Fatalf("err = %v, want the failing peer's retryable 503", err)
	}
}

// When the primary fails after the hedge went to a silent straggler, the
// failure is the round's first verdict: the straggler is cancelled and the
// 503 goes back to the retry loop at once, instead of the round waiting on
// the straggler until the caller's deadline.
func TestPeersPrimaryFailureEndsHedgedRound(t *testing.T) {
	var p *Peers
	var fc *fault.Fake
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		// Hold the request until the hedge has gone to the straggler.
		for p.Stats().Hedges < 1 {
			fc.Advance(time.Millisecond)
			time.Sleep(100 * time.Microsecond)
		}
		http.Error(w, "injected", http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	straggler := stragglerServer()
	defer straggler.Close()

	p, fc = fakeClockFabric(PeersConfig{MaxAttempts: 1, HedgeDelay: time.Millisecond}, failing.URL, straggler.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := p.CollectShard(ctx, testSpec(0, 8))
	wantRetryable503(t, err)
	if st := p.Stats(); st.Hedges != 1 || st.HedgeWins != 0 {
		t.Errorf("stats = %+v, want Hedges=1 HedgeWins=0", st)
	}
}

// When the hedge timer fires and no second peer is admissible (the only
// other peer's breaker is open), the timer re-arms: once the breaker's
// cooldown lets the peer back in, the straggling primary is raced against
// it, and the round ends on that peer's verdict instead of waiting on the
// straggler until the caller's deadline.
func TestPeersHedgeRearmsUntilPeerAdmitted(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "injected", http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	straggler := stragglerServer()
	defer straggler.Close()

	p, fc := fakeClockFabric(PeersConfig{MaxAttempts: 2, HedgeDelay: time.Millisecond}, failing.URL, straggler.URL)
	p.threshold = 1
	// Run injected time at 50x wall time, so the 5 s breaker cooldown
	// passes in about 100 ms.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				fc.Advance(50 * time.Millisecond)
			}
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := p.CollectShard(ctx, testSpec(0, 8))
	wantRetryable503(t, err)
	if st := p.Stats(); st.Hedges < 1 || st.BreakerOpens < 1 {
		t.Errorf("stats = %+v, want at least one hedge and one breaker open", st)
	}
}
