package fault

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// The schedule is a pure function of (seed, identity, occurrence): two
// injectors with the same spec replay identical schedules, a different seed
// produces a different one, and interleaving traffic on other identities
// perturbs nothing.
func TestScheduleDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Drop: 150, Fail: 150, Delay: 100, Truncate: 100, Corrupt: 100, Straggle: 50}
	a, b := New(spec), New(spec)

	ids := []uint64{Identify([]byte("POST"), []byte("/v1/shards"), []byte("spec1")),
		Identify([]byte("POST"), []byte("/v1/shards"), []byte("spec2")),
		Identify([]byte("GET"), []byte("/v1/healthz"))}

	var seqA, seqB []Decision
	for n := 0; n < 200; n++ {
		for _, id := range ids {
			seqA = append(seqA, a.Decide(id))
		}
	}
	// b sees the same per-identity traffic but with extra interleaved
	// traffic on an unrelated identity.
	noise := Identify([]byte("noise"))
	for n := 0; n < 200; n++ {
		for _, id := range ids {
			b.Decide(noise)
			seqB = append(seqB, b.Decide(id))
		}
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same seed + same per-identity traffic produced different schedules")
	}

	c := New(Spec{Seed: 43, Drop: 150, Fail: 150, Delay: 100, Truncate: 100, Corrupt: 100, Straggle: 50})
	var seqC []Decision
	for n := 0; n < 200; n++ {
		for _, id := range ids {
			seqC = append(seqC, c.Decide(id))
		}
	}
	if reflect.DeepEqual(seqA, seqC) {
		t.Fatal("different seeds produced identical schedules")
	}

	// DecideAt is the schedule function itself.
	for n := uint32(0); n < 50; n++ {
		if a.DecideAt(ids[0], n) != New(spec).DecideAt(ids[0], n) {
			t.Fatalf("DecideAt(%d) differs across instances", n)
		}
	}
}

// TestScheduleOrderIndependent: concurrent traffic records decisions in an
// arrival order that varies from run to run, so Schedule must not expose it.
// Two injectors that see the same decisions in different orders return
// equal schedules.
func TestScheduleOrderIndependent(t *testing.T) {
	spec := Spec{Seed: 7, Drop: 300, Fail: 200}
	a, b := New(spec), New(spec)
	ids := []uint64{Identify([]byte("shard-a")), Identify([]byte("shard-b")), Identify([]byte("shard-c"))}
	for n := 0; n < 20; n++ {
		for _, id := range ids {
			a.Decide(id)
		}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		for n := 0; n < 20; n++ {
			b.Decide(ids[i])
		}
	}
	sa, sb := a.Schedule(), b.Schedule()
	if len(sa) != 3*20 {
		t.Fatalf("schedule has %d events, want %d", len(sa), 3*20)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same decisions recorded in different orders produced different schedules")
	}
}

func TestSpecRates(t *testing.T) {
	inj := New(Spec{Seed: 7, Drop: 250, Fail: 250})
	counts := map[Kind]int{}
	id := Identify([]byte("x"))
	for i := 0; i < 4000; i++ {
		counts[inj.Decide(id).Kind]++
	}
	// ~1000 each for Drop/Fail, ~2000 None; generous bounds.
	for _, k := range []Kind{Drop, Fail} {
		if counts[k] < 700 || counts[k] > 1300 {
			t.Errorf("%v fired %d times in 4000, want ≈1000", k, counts[k])
		}
	}
	if counts[None] < 1600 {
		t.Errorf("None fired %d times, want ≈2000", counts[None])
	}
	if counts[Straggle]+counts[Delay]+counts[Truncate]+counts[Corrupt] != 0 {
		t.Error("zero-rate kinds fired")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("drop=150,fail=100,corrupt=80,truncate=50,delay=100:7ms,straggle=20", 9)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 9, Drop: 150, Fail: 100, Corrupt: 80, Truncate: 50, Delay: 100, Straggle: 20, Latency: 7 * time.Millisecond}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	for _, bad := range []string{"drop", "drop=x", "drop=-1", "drop=2000", "nope=5", "drop=600,fail=600", "delay=10:xx"} {
		if _, err := ParseSpec(bad, 0); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if spec, err := ParseSpec("", 3); err != nil || spec.total() != 0 {
		t.Errorf("empty spec: %+v, %v", spec, err)
	}
}

// The RoundTripper mangles traffic exactly as decided: drops error out,
// fails synthesize 5xx, truncation yields a strict prefix and corruption
// differs in exactly one byte.
func TestRoundTripperFaults(t *testing.T) {
	payload := bytes.Repeat([]byte("pubtac-wire-"), 32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer ts.Close()

	get := func(inj *Injector) (*http.Response, []byte, error) {
		c := &http.Client{Transport: inj.RoundTripper(nil, nil)}
		resp, err := c.Get(ts.URL + "/body")
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	if _, _, err := get(New(Spec{Drop: 1000})); err == nil {
		t.Error("Drop: no error")
	}
	if resp, _, err := get(New(Spec{Fail: 1000})); err != nil || resp.StatusCode != 500 {
		t.Errorf("Fail: %v / %v", resp, err)
	}
	if resp, _, err := get(New(Spec{Fail: 1000, FailStatus: 429})); err != nil ||
		resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("Fail(429): want Retry-After, got %v / %v", resp, err)
	}
	if _, body, err := get(New(Spec{Seed: 5, Truncate: 1000})); err != nil ||
		len(body) >= len(payload) || !bytes.HasPrefix(payload, body) {
		t.Errorf("Truncate: %d bytes of %d (%v)", len(body), len(payload), err)
	}
	if _, body, err := get(New(Spec{Seed: 5, Corrupt: 1000})); err != nil || bytes.Equal(body, payload) || len(body) != len(payload) {
		t.Errorf("Corrupt: body unchanged or resized (%v)", err)
	} else {
		diff := 0
		for i := range body {
			if body[i] != payload[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("Corrupt flipped %d bytes, want exactly 1", diff)
		}
	}

	// Straggle hangs until the request context dies.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	c := &http.Client{Transport: New(Spec{Straggle: 1000}).RoundTripper(nil, nil)}
	if _, err := c.Do(req); err == nil {
		t.Error("Straggle: request returned without cancellation")
	}
}

func TestWriterFaults(t *testing.T) {
	id := Identify([]byte("key"))
	payload := bytes.Repeat([]byte("x"), 100)

	var buf bytes.Buffer
	w := New(Spec{Drop: 1000}).Writer(id, &buf)
	if _, err := w.Write(payload); err == nil {
		t.Error("Drop: write succeeded")
	}

	buf.Reset()
	w = New(Spec{Fail: 1000}).Writer(id, &buf)
	if _, err := w.Write(payload); err == nil || buf.Len() == 0 || buf.Len() >= len(payload) {
		t.Errorf("Fail: err=%v wrote %d of %d (want partial + error)", err, buf.Len(), len(payload))
	}

	buf.Reset()
	w = New(Spec{Truncate: 1000}).Writer(id, &buf)
	n, err := w.Write(payload)
	if err != nil || n >= len(payload) || buf.Len() != n {
		t.Errorf("Truncate: n=%d err=%v, want short count with nil error", n, err)
	}

	buf.Reset()
	w = New(Spec{}).Writer(id, &buf)
	if n, err := w.Write(payload); err != nil || n != len(payload) || !bytes.Equal(buf.Bytes(), payload) {
		t.Errorf("None: n=%d err=%v", n, err)
	}
}

func TestFakeClock(t *testing.T) {
	fc := &Fake{}
	ctx := context.Background()
	if err := fc.Sleep(ctx, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ch, stop := fc.After(100 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	fc.Advance(100 * time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("timer did not fire on Advance")
	}
	if stop() {
		t.Error("stop after firing reported stopped")
	}
	if got := fc.Sleeps(); len(got) != 1 || got[0] != 50*time.Millisecond {
		t.Errorf("Sleeps() = %v", got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := fc.Sleep(cctx, time.Second); err == nil {
		t.Error("Sleep ignored cancelled ctx")
	}
}
