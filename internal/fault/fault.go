// Package fault is the deterministic fault-injection substrate behind the
// resilience layer: a seeded injector that produces reproducible connection
// drops, injected server errors, truncated and corrupted bodies, added
// latency and stragglers, pluggable as an http.RoundTripper on the client
// side and as an io.Writer wrapper on the store side.
//
// Determinism is the whole point. The decision for the nth occurrence of a
// given identity (a request's method+path+body, a store entry's key) is a
// pure function of (seed, identity, n) — splitmix64-mixed, like every other
// random draw in the repo — so the injection schedule is content-addressed:
// it does not depend on goroutine interleaving across identities, and the
// same seed replays the same faults against the same traffic. That is what
// lets a chaos test assert bit-identical results under faults and mean it.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pubtac/internal/rng"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// None forwards the operation untouched.
	None Kind = iota
	// Drop fails the operation before any bytes move (connection refused /
	// reset, ENOSPC on a writer).
	Drop
	// Fail returns a synthetic 5xx response without forwarding (HTTP), or
	// an I/O error after the operation partially ran (writer).
	Fail
	// Delay forwards the operation after an injected latency.
	Delay
	// Truncate forwards the operation but cuts the body short. On a writer
	// it is a short write (n < len(p) with a nil error — the sneakiest disk
	// failure mode, which callers must detect themselves).
	Truncate
	// Corrupt forwards the operation with one byte flipped.
	Corrupt
	// Straggle hangs the operation until its context is cancelled — the
	// permanently slow peer that hedging exists for.
	Straggle
)

var kindNames = map[Kind]string{
	None: "none", Drop: "drop", Fail: "fail", Delay: "delay",
	Truncate: "truncate", Corrupt: "corrupt", Straggle: "straggle",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Spec configures an Injector. Rates are per-mille (0..1000) and are
// evaluated in a fixed order (straggle, drop, fail, delay, truncate,
// corrupt) against one uniform draw, so their sum must stay ≤ 1000; the
// remainder is the no-fault probability.
type Spec struct {
	// Seed roots the schedule; the same seed reproduces the same faults for
	// the same traffic.
	Seed uint64
	// Per-mille rates per fault kind.
	Straggle, Drop, Fail, Delay, Truncate, Corrupt int
	// FailStatus is the synthetic HTTP status for Fail (0 selects 500).
	FailStatus int
	// Latency is the injected delay for Delay decisions (0 selects 5ms).
	Latency time.Duration
}

func (s Spec) total() int {
	return s.Straggle + s.Drop + s.Fail + s.Delay + s.Truncate + s.Corrupt
}

// ParseSpec parses the compact flag syntax used by pubtacd's -chaos flag:
// comma-separated kind=permille entries, with an optional duration suffix on
// delay. Example: "drop=150,fail=100,corrupt=80,truncate=50,delay=100:5ms".
func ParseSpec(s string, seed uint64) (Spec, error) {
	spec := Spec{Seed: seed}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	rates := map[string]*int{
		"straggle": &spec.Straggle, "drop": &spec.Drop, "fail": &spec.Fail,
		"delay": &spec.Delay, "truncate": &spec.Truncate, "corrupt": &spec.Corrupt,
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("fault: bad spec entry %q (want kind=permille)", part)
		}
		rate, known := rates[name]
		if !known {
			return spec, fmt.Errorf("fault: unknown fault kind %q", name)
		}
		if seen[name] {
			return spec, fmt.Errorf("fault: fault kind %q given twice", name)
		}
		seen[name] = true
		if name == "delay" {
			if r, dur, hasDur := strings.Cut(val, ":"); hasDur {
				d, err := time.ParseDuration(dur)
				if err != nil {
					return spec, fmt.Errorf("fault: bad delay duration in %q: %v", part, err)
				}
				if d < 0 {
					return spec, fmt.Errorf("fault: negative delay duration in %q", part)
				}
				spec.Latency = d
				val = r
			}
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 || n > 1000 {
			return spec, fmt.Errorf("fault: bad rate in %q (want 0..1000 per-mille)", part)
		}
		*rate = n
	}
	if spec.total() > 1000 {
		return spec, fmt.Errorf("fault: rates sum to %d per-mille (max 1000)", spec.total())
	}
	return spec, nil
}

// Decision is one resolved injection: what to do to this occurrence.
type Decision struct {
	Kind Kind
	// Latency is the injected delay for Delay decisions.
	Latency time.Duration
	// Aux is an extra deterministic draw: the corrupted byte offset for
	// Corrupt (modulo the body length) and the kept fraction seed for
	// Truncate.
	Aux uint64
}

// Event is one recorded decision, for schedule-reproducibility assertions.
type Event struct {
	ID   uint64
	N    uint32
	Kind Kind
}

// Injector turns a Spec into a deterministic fault schedule. It is safe for
// concurrent use; construct with New.
type Injector struct {
	spec Spec

	mu   sync.Mutex
	seen map[uint64]uint32
	log  []Event
}

// New returns an injector for spec. A zero spec injects nothing (every
// decision is None), so a nil-safe always-on wiring is cheap.
func New(spec Spec) *Injector {
	if spec.FailStatus == 0 {
		spec.FailStatus = 500
	}
	if spec.Latency == 0 {
		spec.Latency = 5 * time.Millisecond
	}
	return &Injector{spec: spec, seen: make(map[uint64]uint32)}
}

// Identify folds arbitrary bytes into an identity for Decide — callers hash
// whatever makes two operations "the same traffic" (method+path+body for a
// request, the entry key for a store write).
func Identify(parts ...[]byte) uint64 {
	h := rng.Mix64(uint64(len(parts)))
	for _, p := range parts {
		for _, c := range p {
			h = rng.Mix64(h ^ uint64(c))
		}
		h = rng.Mix64(h)
	}
	return h
}

// Decide returns the decision for the next occurrence of id. For occurrence
// n the decision is a pure function of (seed, id, n): concurrent callers on
// different identities never perturb each other's schedules, and per
// identity the kth retry of the same operation always meets the same fate
// under the same seed.
func (inj *Injector) Decide(id uint64) Decision {
	inj.mu.Lock()
	n := inj.seen[id]
	inj.seen[id] = n + 1
	inj.mu.Unlock()
	d := inj.DecideAt(id, n)
	inj.mu.Lock()
	inj.log = append(inj.log, Event{ID: id, N: n, Kind: d.Kind})
	inj.mu.Unlock()
	return d
}

// DecideAt is Decide for an explicit occurrence number, without recording:
// the pure schedule function itself, exposed so reproducibility tests can
// compare schedules across injector instances.
func (inj *Injector) DecideAt(id uint64, n uint32) Decision {
	h := rng.Mix64(inj.spec.Seed ^ rng.Mix64(id^rng.Mix64(uint64(n)+1)))
	roll := int(h % 1000)
	aux := rng.Mix64(h)
	dec := Decision{Kind: None, Aux: aux}
	for _, band := range [...]struct {
		kind Kind
		rate int
	}{
		{Straggle, inj.spec.Straggle},
		{Drop, inj.spec.Drop},
		{Fail, inj.spec.Fail},
		{Delay, inj.spec.Delay},
		{Truncate, inj.spec.Truncate},
		{Corrupt, inj.spec.Corrupt},
	} {
		if roll < band.rate {
			dec.Kind = band.kind
			break
		}
		roll -= band.rate
	}
	if dec.Kind == Delay {
		// 1x..4x the configured latency, deterministically.
		dec.Latency = inj.spec.Latency * time.Duration(1+aux%4)
	}
	return dec
}

// FailStatus returns the synthetic HTTP status used for Fail decisions.
func (inj *Injector) FailStatus() int { return inj.spec.FailStatus }

// Schedule returns a copy of every recorded decision, sorted by (ID, N).
// Concurrent traffic records decisions in an arrival order that varies from
// run to run, but each (ID, N) pair occurs once and its decision is a pure
// function of the seed, so two runs of the same traffic under the same seed
// return equal schedules.
func (inj *Injector) Schedule() []Event {
	inj.mu.Lock()
	out := append([]Event(nil), inj.log...)
	inj.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].N < out[j].N
	})
	return out
}

// Counts returns how many decisions of each kind were recorded — the
// cheap assertion surface for smoke tests ("some faults actually fired").
func (inj *Injector) Counts() map[Kind]uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Kind]uint64)
	for _, ev := range inj.log {
		out[ev.Kind]++
	}
	return out
}
