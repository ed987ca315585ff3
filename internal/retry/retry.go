// Package retry implements bounded exponential backoff with full jitter
// for transient failures: the client-side half of the service's
// backpressure protocol (marchd answers 429 + Retry-After when a request
// class is full and 503 while it drains; marchctl retries through both
// with this package).
//
// The policy is deliberately small: capped exponential backoff, full
// jitter (delay = rand * min(cap, base<<attempt), the "Full Jitter"
// strategy — decorrelated load spikes without coordination), an explicit
// server override (After carries a Retry-After hint that replaces the
// computed backoff), and an explicit stop (Permanent marks an error not
// worth retrying). Sleeping is context-aware and injectable, so tests run
// in virtual time.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Policy configures Do. The zero value is usable: 4 attempts, 50ms base,
// 2s cap, real sleep, math/rand jitter.
type Policy struct {
	// MaxAttempts bounds the total number of op invocations (not retries);
	// <=0 means 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff; <=0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff delay; <=0 means 2s.
	MaxDelay time.Duration
	// Sleep waits d or until ctx is done, whichever is first, returning
	// ctx.Err() if the context won. nil means a timer-based sleep; tests
	// inject a recorder that returns instantly.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand returns a jitter factor in [0, 1); nil means math/rand. Tests
	// inject a constant for deterministic delays.
	Rand func() float64
	// MaxElapsed bounds the total time Do spends across all attempts and
	// sleeps, measured from its first invocation of op: once the budget is
	// spent — or the next delay (including a server's Retry-After) would
	// overrun it — Do stops and returns the last error instead of sleeping
	// toward a deadline it cannot meet. <=0 means unbounded, the historical
	// behavior. This is the marchctl -timeout knob: MaxAttempts bounds how
	// many times we try, MaxElapsed bounds how long we keep trying.
	MaxElapsed time.Duration
	// Now supplies the clock for the MaxElapsed budget; nil means
	// time.Now. Tests inject a fake to verify budget arithmetic without
	// real sleeping.
	Now func() time.Time
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p Policy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p Policy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
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

func (p Policy) jitter() float64 {
	if p.Rand != nil {
		return p.Rand()
	}
	return rand.Float64()
}

// backoff computes the full-jitter delay for the given zero-based attempt
// index: rand * min(cap, base << attempt), with shift overflow clamped to
// the cap.
func (p Policy) backoff(attempt int) time.Duration {
	base, cap := p.baseDelay(), p.maxDelay()
	d := cap
	if attempt < 62 { // beyond that the shift alone overflows int64
		if shifted := base << uint(attempt); shifted > 0 && shifted < cap {
			d = shifted
		}
	}
	return time.Duration(p.jitter() * float64(d))
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns it (unwrapped
// for errors.Is/As). A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// afterError carries a server-provided retry delay (Retry-After).
type afterError struct {
	err   error
	delay time.Duration
}

func (e *afterError) Error() string { return e.err.Error() }
func (e *afterError) Unwrap() error { return e.err }

// After wraps err with an explicit delay before the next attempt,
// overriding the computed backoff — the client-side carrier of a
// Retry-After header. A nil err stays nil.
func After(err error, delay time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, delay: delay}
}

func (p Policy) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// Do invokes op until it succeeds, returns a Permanent error, the policy's
// attempts are exhausted, its MaxElapsed budget runs out, or ctx is done.
// The returned error is the last attempt's (with Permanent/After wrappers
// stripped), or ctx.Err() if the context ended the loop first.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	max := p.maxAttempts()
	start := p.now()
	var last error
	for attempt := 0; attempt < max; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		last = err
		if attempt == max-1 {
			break
		}
		delay := p.backoff(attempt)
		var after *afterError
		if errors.As(err, &after) {
			delay = after.delay
			last = after.err
		}
		// The elapsed budget: stop — rather than sleep — when the budget
		// is already spent or the pending delay would overrun it. A
		// server's huge Retry-After must not pin the client past its own
		// deadline.
		if p.MaxElapsed > 0 {
			remaining := p.MaxElapsed - p.now().Sub(start)
			if remaining <= 0 || delay > remaining {
				break
			}
		}
		if err := p.sleep(ctx, delay); err != nil {
			return err
		}
	}
	var after *afterError
	if errors.As(last, &after) {
		return after.err
	}
	return last
}
