package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubtac"
	"pubtac/internal/fault"
	"pubtac/internal/pool"
	"pubtac/internal/rng"
)

// PeersConfig configures NewFabric beyond the peer URLs.
type PeersConfig struct {
	// MaxAttempts bounds how many times one shard is dispatched before the
	// fabric gives up and the coordinator recomputes it locally. Each
	// hedged race counts as one attempt. Zero or negative means 3.
	MaxAttempts int
	// HedgeDelay is how long the primary dispatch runs alone before the
	// same shard is raced on a second peer; the first verdict, a valid runs
	// frame or a failure, ends the race and the other dispatch is
	// cancelled. Zero or negative disables hedging, which spends duplicate
	// work for tail latency.
	HedgeDelay time.Duration
	// Transport, when non-nil, replaces every peer client's HTTP transport
	// — the hook chaos testing plugs the fault injector into.
	Transport http.RoundTripper
}

// The fabric's fixed schedule. Backoff between attempts is capped
// exponential from baseBackoff to maxBackoff, equal-jittered: uniformly in
// [d/2, d] for the deterministic exponential d, drawn from a generator
// seeded with jitterSeed, so every fabric replays the same backoff schedule.
// Jitter only decorrelates retry storms; it never reaches result bytes.
// attemptTimeout bounds each dispatch round on the fabric's clock; a round
// that expires counts as a failure of every racer still silent and is
// retried. breakerThreshold consecutive failures open a peer's circuit
// breaker; the peer is skipped until breakerCooldown elapses, then a single
// half-open probe decides whether it closes again.
const (
	defaultMaxAttempts = 3
	baseBackoff        = 50 * time.Millisecond
	maxBackoff         = 2 * time.Second
	attemptTimeout     = 5 * time.Minute
	breakerThreshold   = 5
	breakerCooldown    = 5 * time.Second
	jitterSeed         = 0x70656572666162 // "peerfab"
)

// Peers is a pubtac.ShardCollector over a set of pubtacd workers — the
// resilient peer fabric. Each shard is dispatched with per-attempt
// timeouts, capped exponential backoff with seeded jitter between
// attempts, fail-fast classification of permanent errors (foreign config
// fingerprints, malformed ranges), per-peer circuit breakers, and optional
// hedged dispatch that races a straggling primary against a second peer.
//
// None of this machinery can affect result bytes: workers return raw
// per-run samples for fixed run ranges, so whichever peer answers — first
// attempt, third retry, or hedge winner — the shard's bytes are identical,
// and anything the fabric cannot deliver falls back to bit-identical local
// recomputation in the coordinator. Peers is safe for concurrent use; the
// zero value has no peers and fails every shard.
type Peers struct {
	peers       []*peer
	maxAttempts int
	hedgeDelay  time.Duration
	next        atomic.Uint64

	// clock and threshold are test seams: wall time and breakerThreshold
	// in production, injected time and a lower threshold in tests.
	clock     fault.Clock
	threshold int

	jmu  sync.Mutex
	jrng *rng.SplitMix64

	retries      atomic.Uint64
	hedges       atomic.Uint64
	hedgeWins    atomic.Uint64
	failFast     atomic.Uint64
	breakerOpens atomic.Uint64
}

// NewFabric returns a configured fabric over the given daemon base URLs.
// Whitespace around each URL is trimmed and empty ones are skipped, so a
// flag value like "http://a:8761, http://b:8762" names two peers.
func NewFabric(cfg PeersConfig, urls ...string) *Peers {
	p := &Peers{
		maxAttempts: cfg.MaxAttempts,
		hedgeDelay:  cfg.HedgeDelay,
		clock:       fault.Real{},
		threshold:   breakerThreshold,
		jrng:        rng.NewSplitMix64(rng.Mix64(jitterSeed)),
	}
	if p.maxAttempts <= 0 {
		p.maxAttempts = defaultMaxAttempts
	}
	var opts []Option
	if cfg.Transport != nil {
		opts = append(opts, WithTransport(cfg.Transport))
	}
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			p.peers = append(p.peers, &peer{c: New(u, opts...)})
		}
	}
	return p
}

// Shards suggests one shard per peer when the session does not pin a count.
func (p *Peers) Shards() int { return len(p.peers) }

// FabricStats is a point-in-time snapshot of the fabric's behavior,
// surfaced by pubtacd's /v1/statusz.
type FabricStats struct {
	// Retries counts re-dispatches after a failed attempt.
	Retries uint64 `json:"retries"`
	// Hedges counts hedged (raced) dispatches; HedgeWins counts the races
	// the hedge won.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// FailFast counts shards abandoned without retry on permanent errors.
	FailFast uint64 `json:"fail_fast"`
	// BreakerOpens counts closed/half-open -> open breaker transitions.
	BreakerOpens uint64 `json:"breaker_opens"`
	// Peers reports each peer's breaker state in configuration order.
	Peers []PeerStats `json:"peers,omitempty"`
}

// PeerStats is one peer's health in a FabricStats snapshot.
type PeerStats struct {
	URL string `json:"url"`
	// Breaker is "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// ConsecutiveFails is the current failure streak feeding the breaker.
	ConsecutiveFails int `json:"consecutive_fails"`
}

// Stats snapshots the fabric's counters and per-peer breaker states.
func (p *Peers) Stats() FabricStats {
	st := FabricStats{
		Retries:      p.retries.Load(),
		Hedges:       p.hedges.Load(),
		HedgeWins:    p.hedgeWins.Load(),
		FailFast:     p.failFast.Load(),
		BreakerOpens: p.breakerOpens.Load(),
	}
	for _, pr := range p.peers {
		pr.mu.Lock()
		st.Peers = append(st.Peers, PeerStats{
			URL:              pr.c.BaseURL,
			Breaker:          pr.state.String(),
			ConsecutiveFails: pr.fails,
		})
		pr.mu.Unlock()
	}
	return st
}

// errAllPeersOpen is retryable: breakers cool down on their own.
var errAllPeersOpen = errors.New("client: every peer's circuit breaker is open")

// CollectShard dispatches the shard through the fabric. It returns the
// shard's runs from the first attempt that yields a valid runs frame, or
// the first error once the attempt budget is spent — at which point the
// coordinator's local fallback owns the range.
func (p *Peers) CollectShard(ctx context.Context, spec pubtac.ShardSpec) ([]float64, error) {
	if len(p.peers) == 0 {
		return nil, fmt.Errorf("client: no shard peers configured")
	}
	var lastErr error
	for attempt := 0; attempt < p.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			p.retries.Add(1)
			if err := p.clock.Sleep(ctx, p.backoffFor(attempt-1, lastErr)); err != nil {
				return nil, err
			}
		}
		runs, err := p.attempt(ctx, spec)
		if err == nil {
			return runs, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if permanentErr(err) {
			p.failFast.Add(1)
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// attemptResult carries one dispatch's outcome back to the racing select.
type attemptResult struct {
	runs   []float64
	err    error
	hedged bool
}

// errAttemptTimeout ends a round that got no verdict within attemptTimeout.
// It is retryable.
var errAttemptTimeout = fmt.Errorf("client: no shard verdict within %v", attemptTimeout)

// attempt runs one (possibly hedged) dispatch round: the primary peer
// starts immediately; if a hedge delay is configured and the primary has not
// answered when it elapses, the same spec races on a second peer. The first
// verdict ends the round and cancels the other racer: valid runs win,
// and a failure goes back to CollectShard's retry loop (backoff, fresh peer
// pick) instead of waiting out a silent straggler. When the hedge timer
// finds no admissible second peer it re-arms, so the straggler is raced as
// soon as a breaker lets a peer back in. A round with no verdict after
// attemptTimeout on the fabric's clock fails.
//
// Every racer feeds its peer's breaker at most once. A racer still silent
// when the round ends without a winner counts as failed, so a hung peer's
// breaker opens. A racer cancelled because the other racer won, or because
// the caller's context ended, says nothing about its peer: no verdict.
func (p *Peers) attempt(ctx context.Context, spec pubtac.ShardSpec) ([]float64, error) {
	primary := p.pick(nil)
	if primary == nil {
		return nil, errAllPeersOpen
	}
	actx, cancel := context.WithCancel(ctx)
	g, _ := pool.WithContext(actx)
	var silent [2]*peer // racers cancelled by the end of the round; read after g.Wait
	won := false
	defer func() {
		cancel()
		g.Wait()
		for _, pr := range silent {
			switch {
			case pr == nil:
			case won || ctx.Err() != nil:
				pr.releaseProbe()
			default:
				p.record(pr, false)
			}
		}
	}()
	results := make(chan attemptResult, 2) // one slot per racer: a late send never blocks
	// Racer 0 is the primary, racer 1 the hedge.
	launch := func(i int, pr *peer) {
		g.Go(func() error {
			runs, err := pr.c.CollectShard(actx, spec)
			if err != nil && actx.Err() != nil {
				silent[i] = pr
				return nil
			}
			p.record(pr, err == nil)
			results <- attemptResult{runs: runs, err: err, hedged: i == 1}
			return nil
		})
	}
	launch(0, primary)

	var hedgeCh <-chan time.Time
	stopHedge := func() bool { return false }
	defer func() { stopHedge() }()
	if p.hedgeDelay > 0 && len(p.peers) > 1 {
		hedgeCh, stopHedge = p.clock.After(p.hedgeDelay)
	}
	deadline, stopDeadline := p.clock.After(attemptTimeout)
	defer stopDeadline()
	for {
		select {
		case res := <-results:
			won = res.err == nil
			if won && res.hedged {
				p.hedgeWins.Add(1)
			}
			return res.runs, res.err
		case <-hedgeCh:
			if sec := p.pick(primary); sec != nil {
				p.hedges.Add(1)
				launch(1, sec)
				hedgeCh = nil
			} else {
				hedgeCh, stopHedge = p.clock.After(p.hedgeDelay)
			}
		case <-deadline:
			return nil, errAttemptTimeout
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// pick returns the next healthy peer after the round-robin cursor,
// skipping exclude (the hedge never races a peer against itself) and any
// peer whose breaker refuses admission. nil means no peer is available
// right now — a retryable condition, since breakers cool down.
func (p *Peers) pick(exclude *peer) *peer {
	n := len(p.peers)
	if n == 0 {
		return nil
	}
	now := p.clock.Now()
	start := int((p.next.Add(1) - 1) % uint64(n))
	for i := 0; i < n; i++ {
		pr := p.peers[(start+i)%n]
		if pr == exclude {
			continue
		}
		if pr.admit(now) {
			return pr
		}
	}
	return nil
}

// record feeds one racer's verdict to the peer's breaker.
func (p *Peers) record(pr *peer, ok bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if ok {
		pr.state = breakerClosed
		pr.fails = 0
		pr.probing = false
		return
	}
	pr.fails++
	if pr.state == breakerHalfOpen || pr.fails >= p.threshold {
		if pr.state != breakerOpen {
			p.breakerOpens.Add(1)
		}
		pr.state = breakerOpen
		pr.openUntil = p.clock.Now().Add(breakerCooldown)
		pr.probing = false
	}
}

// backoffFor is the wait before retry number retry (0-based): capped
// exponential with seeded equal jitter, floored by any Retry-After the
// server sent — a shedding server's explicit request outranks our guess.
func (p *Peers) backoffFor(retry int, lastErr error) time.Duration {
	if retry > 16 {
		retry = 16 // cap the shift well before overflow
	}
	d := baseBackoff << uint(retry)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	p.jmu.Lock()
	j := p.jrng.Next()
	p.jmu.Unlock()
	if half := d / 2; half > 0 {
		d = half + time.Duration(j%uint64(half+1))
	}
	var se *StatusError
	if errors.As(lastErr, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

// permanentErr reports whether retrying err — later or on another peer —
// is pointless: non-temporary HTTP statuses (409 foreign fingerprint, 400
// malformed range, ...) describe the request, not the peer, and a
// cancelled parent context means nobody wants the answer anymore. Network
// failures, 5xx, 429 sheds, timeouts and undecodable runs frames (corrupt,
// truncated or of another version) all stay retryable.
func permanentErr(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return !se.Temporary()
	}
	return errors.Is(err, context.Canceled)
}

// peer is one worker endpoint plus its circuit breaker.
type peer struct {
	c *Client

	mu        sync.Mutex
	state     breakerState
	fails     int       // consecutive failures
	openUntil time.Time // when an open breaker may half-open
	probing   bool      // a half-open probe is in flight
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// admit decides whether the peer may serve a dispatch right now: closed
// breakers always admit, open ones refuse until the cooldown elapses, and
// a half-open breaker admits exactly one probe at a time.
func (pr *peer) admit(now time.Time) bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	switch pr.state {
	case breakerOpen:
		if now.Before(pr.openUntil) {
			return false
		}
		pr.state = breakerHalfOpen
		pr.probing = true
		return true
	case breakerHalfOpen:
		if pr.probing {
			return false
		}
		pr.probing = true
		return true
	}
	return true
}

// releaseProbe returns a half-open admission slot without a verdict, for
// dispatches cancelled by the race rather than failed by the peer.
func (pr *peer) releaseProbe() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.state == breakerHalfOpen {
		pr.probing = false
	}
}
