package fault

import (
	"context"
	"sync"
	"time"
)

// Clock is the time seam for every resilience mechanism in the repo: retry
// backoff, hedge timers and circuit-breaker cooldowns all take their sleeps
// and readings through it instead of the wall clock. The seam is what keeps
// the detrand invariant honest — the one Real implementation below is the
// single escape-audited wall-clock touchpoint, and tests drive the exact
// same code deterministically through Fake.
//
// The client peer fabric re-exports it as client.Clock, so callers outside
// the module can name the seam.
type Clock interface {
	// Now returns the current reading. Readings are only ever compared to
	// each other (cooldown expiry), never stored in results.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that receives once after d, plus a stop
	// function releasing the timer early (reporting whether it was stopped
	// before firing).
	After(d time.Duration) (<-chan time.Time, func() bool)
}

// Real is the wall clock. It is the only place in the tree where resilience
// code touches ambient time; everything above it is injected.
type Real struct{}

// Now implements Clock.
//
//pubtac:nondeterministic the one wall-clock touchpoint behind the Clock seam; readings gate retries/breakers and never reach result bytes
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock with a cancellable timer (time.Sleep itself would
// ignore ctx and hold the goroutine hostage).
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// After implements Clock.
func (Real) After(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Fake is a deterministic manual clock for tests. Sleep auto-advances: it
// records the requested duration, moves the clock forward and returns
// immediately, so a retry loop's whole backoff schedule runs in microseconds
// and the recorded durations pin the exact seeded-jitter sequence. After
// timers fire when Advance (or an auto-advancing Sleep) moves the clock past
// their deadline. The zero value is ready to use and starts at the zero
// time.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at    time.Time
	ch    chan time.Time
	fired bool
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock: it records d, advances the clock by it, fires any
// timers that came due, and returns immediately (or ctx.Err() if ctx is
// already done).
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	f.advanceLocked(d)
	f.mu.Unlock()
	return nil
}

// After implements Clock. The returned timer fires when the clock is
// advanced to or past its deadline.
func (f *Fake) After(d time.Duration) (<-chan time.Time, func() bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{at: f.now.Add(d), ch: make(chan time.Time, 1)}
	f.timers = append(f.timers, t)
	if d <= 0 {
		t.fired = true
		t.ch <- t.at
	}
	return t.ch, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		stopped := !t.fired
		t.fired = true
		return stopped
	}
}

// Advance moves the clock forward by d, firing due timers.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.advanceLocked(d)
	f.mu.Unlock()
}

func (f *Fake) advanceLocked(d time.Duration) {
	f.now = f.now.Add(d)
	for _, t := range f.timers {
		if !t.fired && !t.at.After(f.now) {
			t.fired = true
			t.ch <- f.now
		}
	}
}

// Sleeps returns the durations of every Sleep so far, in call order — the
// backoff schedule a test pins.
func (f *Fake) Sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}
