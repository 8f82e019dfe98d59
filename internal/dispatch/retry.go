package dispatch

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy governs how failed sites are retried: exponential backoff
// with seeded jitter, up to a total attempt budget. It is the one rule on
// both crawl paths — a failure, whether a local error or a message a
// fabric worker reported, retries until the budget is spent.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per site, including the
	// first (default 3). 1 means no retries.
	MaxAttempts int
	// BaseDelay is the backoff after the first failure (default 100ms);
	// it doubles per subsequent failure.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
	// JitterFrac adds up to this fraction of the delay as random jitter
	// (default 0.5). Jitter is drawn from a seeded RNG, so a given run
	// configuration retries deterministically.
	JitterFrac float64
}

// WithDefaults fills the zero fields with the defaults above.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac == 0 {
		p.JitterFrac = 0.5
	}
	return p
}

// Delay computes the backoff before attempt+1, given that `attempt`
// attempts have already failed (attempt ≥ 1).
func (p RetryPolicy) Delay(attempt int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 && rng != nil {
		d += time.Duration(p.JitterFrac * rng.Float64() * float64(d))
	}
	return d
}

// released reports whether err is a cancellation rather than a site
// failure: the site goes back to pending without consuming an attempt.
func released(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
