// Package retry gives the study's per-cell work bounded, context-aware
// retries with capped exponential backoff and deterministic jitter.
//
// Every probe/observe/trace unit is an attemptable operation: transient
// failures (injected by internal/faults, or — on a real measurement
// fleet — flaky nodes) are retried a bounded number of times, while
// permanent failures (validation errors, job-too-large) fail fast
// through the caller's classifier. An attempt that outlives its
// per-attempt deadline is always worth retrying while the parent
// context is alive: a stalled run says nothing about the next one.
//
// Jitter is hashed from the policy seed and the operation's site string
// rather than drawn from a random source, so a chaos run backs off
// identically from run to run — determinism is a study invariant (see
// internal/analysis/detrand).
package retry

import (
	"context"
	"errors"
	"time"

	"hpcmetrics/internal/obs"
)

// Policy bounds and paces the attempts of one operation. The zero value
// is a single attempt with no deadline.
type Policy struct {
	// MaxAttempts bounds attempts; 0 or 1 means a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt, doubled per
	// retry up to MaxDelay. Zero defaults to 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero defaults to 1s.
	MaxDelay time.Duration
	// AttemptTimeout bounds each attempt via context.WithTimeout; 0
	// leaves attempts bounded only by the parent context.
	AttemptTimeout time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed uint64
	// Retryable classifies attempt errors; nil retries everything.
	// Attempt timeouts bypass it: they are always retryable while the
	// parent context is alive.
	Retryable func(error) bool
}

// TimedOut reports whether err is an attempt-deadline expiry — the
// signature of a stalled run reclaimed by Policy.AttemptTimeout.
func TimedOut(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// Do runs op under the policy until it succeeds, exhausts its attempt
// budget, fails permanently, or the parent context ends. It reports how
// many attempts ran alongside the final error; on exhaustion or a
// permanent failure that error is the last attempt's. When ctx carries
// an obs registry, attempts, retries, timeouts, and give-ups land on
// the retry_* counters.
func Do(ctx context.Context, p Policy, site string, op func(context.Context) error) (attempts int, err error) {
	budget := p.MaxAttempts
	if budget < 1 {
		budget = 1
	}
	meter := obs.From(ctx).Meter()
	attemptsC := meter.Counter("retry_attempts_total")
	retriesC := meter.Counter("retry_retries_total")
	timeoutsC := meter.Counter("retry_timeouts_total")
	giveupsC := meter.Counter("retry_giveups_total")

	for attempt := 1; attempt <= budget; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return attempt - 1, cerr
		}
		attemptsC.Inc()
		err = runAttempt(ctx, p.AttemptTimeout, op)
		if err == nil {
			return attempt, nil
		}
		if ctx.Err() != nil {
			// The parent ended mid-attempt; nothing left to retry into.
			return attempt, err
		}
		if TimedOut(err) {
			timeoutsC.Inc()
		} else if p.Retryable != nil && !p.Retryable(err) {
			return attempt, err
		}
		if attempt == budget {
			break
		}
		retriesC.Inc()
		if serr := Sleep(ctx, backoff(p, site, attempt)); serr != nil {
			// Cancelled mid-backoff: surface both the attempt's failure
			// and the cancellation, so errors.Is finds either.
			return attempt, errors.Join(err, serr)
		}
	}
	giveupsC.Inc()
	return budget, err
}

// runAttempt runs one attempt under its own deadline, if any.
func runAttempt(ctx context.Context, timeout time.Duration, op func(context.Context) error) error {
	if timeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return op(actx)
}

// backoff returns the pause before the next attempt: capped exponential
// doubling scaled by a jitter factor in [0.5, 1.5) hashed from (seed,
// site, attempt). Same policy, same site, same attempt — same pause.
func backoff(p Policy, site string, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	return time.Duration(float64(d) * (0.5 + jitter(p.Seed, site, attempt)))
}

// jitter hashes (seed, site, attempt) to a uniform [0, 1) via FNV-1a —
// the same construction as the study's observation noise.
func jitter(seed uint64, site string, attempt int) float64 {
	h := uint64(14695981039346656037)
	for shift := 0; shift < 64; shift += 8 {
		h ^= (seed >> shift) & 0xff
		h *= 1099511628211
	}
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	h ^= uint64(attempt)
	h *= 1099511628211
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Sleep sleeps for d or until ctx is cancelled, whichever is first; it
// returns ctx's error if the context ended the sleep. Retry's backoff and
// the fault injector's stalls both wait this way.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
