package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/fault"
	"pubtac/internal/serve"
)

// newDaemon builds a daemon over a fresh store with the given session
// options.
func newDaemon(t *testing.T, sopts []pubtac.Option) (*serve.Server, *httptest.Server) {
	t.Helper()
	store, err := serve.NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: sopts})
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

// coordinatorOpts is sopts plus a peer fabric over urls that cuts every
// campaign range into k shards: the session options of a coordinator daemon.
func coordinatorOpts(sopts []pubtac.Option, cfg client.PeersConfig, k int, urls ...string) []pubtac.Option {
	return append(slices.Clone(sopts), pubtac.WithPeers(client.NewFabric(cfg, urls...)), pubtac.WithShards(k))
}

// newStraggler serves a worker that accepts every shard and never answers:
// the pathological peer only hedging or attempt timeouts can route around.
func newStraggler(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // consume so the server watches the conn
		<-r.Context().Done()        // hang until the coordinator cancels us
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestChaosCoordinatorBitIdentical is the robustness acceptance oracle: a
// coordinator sharding over healthy workers AND a permanently straggling
// one, with seeded faults (connection drops, injected 5xx, corrupt and
// truncated shard summaries) on every outbound peer call, still produces a
// result body byte-identical to a standalone daemon's — in both the full
// and the streaming estimation modes, at more than one worker count — and
// hedged dispatch demonstrably rescues at least one shard from the
// straggler.
func TestChaosCoordinatorBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos oracle: full campaigns under fault injection, not a -short test")
	}
	modes := []struct {
		name  string
		extra []pubtac.Option
	}{
		{"full", nil},
		{"streaming", []pubtac.Option{pubtac.WithStreamingEstimation(0)}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sopts := append(append([]pubtac.Option(nil), smallOpts()...), mode.extra...)

			_, plainTS := newDaemon(t, sopts)
			_, w1TS := newDaemon(t, sopts)
			_, w2TS := newDaemon(t, sopts)
			straggler := newStraggler(t)

			ctx := context.Background()
			req := client.AnalyzeRequest{Bench: "bs"}
			plain, _, err := client.New(plainTS.URL).AnalyzeRaw(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			// Two topologies: every shard dispatch rides the same seeded
			// fault schedule, and the straggler is always in the peer set.
			topologies := []struct {
				name   string
				peers  []string
				shards int
			}{
				{"3-peers", []string{w1TS.URL, w2TS.URL, straggler.URL}, 3},
				{"2-peers", []string{w1TS.URL, straggler.URL}, 5},
			}
			var hedgeWins, faults uint64
			for _, topo := range topologies {
				inj := fault.New(fault.Spec{
					Seed:     0xC7A05,
					Drop:     120,
					Fail:     100,
					Corrupt:  90,
					Truncate: 70,
				})
				coord, coordTS := newDaemon(t, coordinatorOpts(sopts, client.PeersConfig{
					MaxAttempts: 4,
					HedgeDelay:  3 * time.Millisecond,
					Transport:   inj.RoundTripper(nil, nil),
				}, topo.shards, topo.peers...))
				sharded, _, err := client.New(coordTS.URL).AnalyzeRaw(ctx, req)
				if err != nil {
					t.Fatalf("%s: %v", topo.name, err)
				}
				if !bytes.Equal(plain, sharded) {
					t.Fatalf("%s: chaos-sharded result differs from the standalone daemon's bytes", topo.name)
				}
				st := coord.Stats()
				if st.Fabric == nil {
					t.Fatalf("%s: coordinator statusz carries no fabric section", topo.name)
				}
				hedgeWins += st.Fabric.HedgeWins
				for kind, n := range inj.Counts() {
					if kind != fault.None {
						faults += n
					}
				}
			}
			if hedgeWins == 0 {
				t.Error("no hedged dispatch won a single shard despite a permanent straggler in every topology")
			}
			if faults == 0 {
				t.Error("the fault injector never fired — the oracle proved nothing")
			}
		})
	}
}

// TestChaosScheduleReproducible: two coordinators configured with the same
// fault seed over the same topology see the same injection schedule — the
// property that makes a chaos failure replayable.
func TestChaosScheduleReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns; not a -short test")
	}
	sopts := smallOpts()
	_, wTS := newDaemon(t, sopts)

	run := func() []fault.Event {
		inj := fault.New(fault.Spec{Seed: 99, Drop: 150, Fail: 120})
		_, coordTS := newDaemon(t, coordinatorOpts(sopts, client.PeersConfig{
			MaxAttempts: 5,
			Transport:   inj.RoundTripper(nil, nil),
		}, 2, wTS.URL))
		if _, _, err := client.New(coordTS.URL).AnalyzeRaw(context.Background(), client.AnalyzeRequest{Bench: "bs"}); err != nil {
			t.Fatal(err)
		}
		return inj.Schedule()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShardLoadShedding: a saturated worker answers 429 + Retry-After
// immediately instead of queuing, counts the shed in statusz, and serves
// again once the slot frees. One big shard occupies the single slot while
// small probes poke at it; both sides retry on 429, so the test converges
// under any goroutine scheduling instead of racing N posts and hoping
// they overlap.
func TestShardLoadShedding(t *testing.T) {
	store, err := serve.NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: smallOpts(), MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	cfg := pubtac.NewSession(smallOpts()...).Config()
	spec := pubtac.ShardSpec{
		Config:  srv.ConfigFingerprint().String(),
		Program: "bs",
		Input:   "default",
		Root:    cfg.CampaignRoot("bs", "default"),
	}
	// post runs on both the test goroutine and the occupier's, so it may
	// only t.Error (never FailNow): errors surface as status 0, which every
	// caller rejects.
	post := func(lo, hi int) (int, string) {
		sp := spec
		sp.Lo, sp.Hi = lo, hi
		buf, err := json.Marshal(sp)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp, err := http.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// The occupier: a shard big enough to hold the slot for a long, visible
	// window. A probe that momentarily held the slot can shed it, so it
	// retries until it lands.
	const bigRuns = 1 << 21
	type outcome struct {
		code  int
		sheds int
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		for {
			o.code, _ = post(0, bigRuns)
			if o.code != http.StatusTooManyRequests {
				done <- o
				return
			}
			o.sheds++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Probe with tiny shards until one is shed off the occupied slot. If
	// the big shard somehow completes first the loop ends with its result
	// and the test fails loudly rather than hanging.
	probeSheds := 0
probing:
	for {
		select {
		case o := <-done:
			done <- o
			break probing
		default:
		}
		code, retryAfter := post(0, 64)
		switch code {
		case http.StatusTooManyRequests:
			probeSheds++
			if retryAfter == "" {
				t.Error("429 without Retry-After")
			}
			break probing
		case http.StatusOK: // slot was free; poke again
		default:
			t.Fatalf("probe: unexpected status %d", code)
		}
	}
	if probeSheds == 0 {
		t.Fatal("big shard completed before any probe was shed")
	}

	o := <-done
	if o.code != http.StatusOK {
		t.Fatalf("big shard final status %d, want 200", o.code)
	}
	// The slot is free again: shedding degraded latency, not service.
	if code, _ := post(0, 64); code != http.StatusOK {
		t.Fatalf("post after slot freed: status %d, want 200", code)
	}
	if st := srv.Stats(); st.Sheds != uint64(probeSheds+o.sheds) {
		t.Errorf("statusz sheds = %d, want %d", st.Sheds, probeSheds+o.sheds)
	}
}

// TestShardDeadline: a worker with a shard deadline fails over-budget
// shards with 503 — retryable, so the coordinator's fabric or local
// fallback owns the range — instead of pinning a slot indefinitely.
func TestShardDeadline(t *testing.T) {
	store, err := serve.NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{
		Store:          store,
		SessionOptions: smallOpts(),
		ShardDeadline:  time.Nanosecond, // every shard is over budget
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	cfg := pubtac.NewSession(smallOpts()...).Config()
	spec := pubtac.ShardSpec{
		Config:  srv.ConfigFingerprint().String(),
		Program: "bs",
		Input:   "default",
		Root:    cfg.CampaignRoot("bs", "default"),
		Lo:      0,
		Hi:      500,
	}
	resp, body := postShard(t, ts.URL, spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 from the shard deadline", resp.StatusCode, bytes.TrimSpace(body))
	}
}
