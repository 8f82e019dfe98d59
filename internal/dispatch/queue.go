package dispatch

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/obs"
)

// jobState is the lifecycle of one queued site.
type jobState int

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateFailed
)

// job is one site's queue entry.
type job struct {
	site     crawler.Site
	seq      int // position in the original site list (determinism)
	state    jobState
	attempts int       // attempts started so far
	readyAt  time.Time // backoff gate while pending
	expiry   time.Time // lease deadline while leased
	token    uint64    // current lease token; stale leases are ignored
	lastErr  string
}

// Queue is the persistent-crawl job queue: sites are leased by workers,
// must be heartbeat before the lease TTL elapses, and are re-queued
// (with their attempt count advanced) when a lease expires — the
// standard work-dispatcher contract that lets a crawl survive dead or
// wedged workers. Failed sites re-enter with exponential backoff until
// the retry budget is spent. The queue is its callers' only clock: a
// blocked Lease wakes on the next settle or deadline, and Drained closes
// when the last job turns terminal. All methods are safe for concurrent
// use.
type Queue struct {
	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // domains in seq order
	leaseTTL time.Duration
	policy   RetryPolicy
	rng      *rand.Rand // jitter source
	now      func() time.Time
	signal   chan struct{} // closed and replaced on every state change
	drained  chan struct{} // closed once terminal == len(jobs)
	terminal int           // jobs done or failed

	tokens   uint64
	retries  int64 // failed attempts that were re-queued
	requeues int64 // leases reclaimed after expiry
}

// QueueConfig parameterizes a queue.
type QueueConfig struct {
	// LeaseTTL is how long a worker may hold a site without
	// heartbeating before the site is reclaimed (default 30s).
	LeaseTTL time.Duration
	// Retry is the retry policy (zero value = defaults).
	Retry RetryPolicy
	// Seed drives backoff jitter.
	Seed int64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// NewQueue builds a queue over the site list, preserving its order.
func NewQueue(sites []crawler.Site, cfg QueueConfig) *Queue {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	q := &Queue{
		jobs:     make(map[string]*job, len(sites)),
		order:    make([]string, 0, len(sites)),
		leaseTTL: cfg.LeaseTTL,
		policy:   cfg.Retry.withDefaults(),
		rng:      detrand.New(cfg.Seed),
		now:      cfg.Now,
		signal:   make(chan struct{}),
		drained:  make(chan struct{}),
	}
	for i, s := range sites {
		if _, dup := q.jobs[s.Domain]; dup {
			continue
		}
		q.jobs[s.Domain] = &job{site: s, seq: i}
		q.order = append(q.order, s.Domain)
	}
	if len(q.jobs) == 0 {
		close(q.drained)
	}
	q.exportGauges()
	return q
}

// exportGauges registers the queue's depth and retry counters as
// function gauges on the obs registry, so the progress reporter and the
// expvar endpoint see live queue state. Each gauge snapshots Progress
// under the queue lock; the reporter cadence (~1/s) keeps that cheap
// even at 100K sites. A newer queue (the next crawl of a study) simply
// re-registers the same names and takes the gauges over.
func (q *Queue) exportGauges() {
	for name, pick := range map[string]func(Progress) int64{
		obs.MQueueTotal:    func(p Progress) int64 { return int64(p.Total) },
		obs.MQueuePending:  func(p Progress) int64 { return int64(p.Pending) },
		obs.MQueueLeased:   func(p Progress) int64 { return int64(p.Leased) },
		obs.MQueueDone:     func(p Progress) int64 { return int64(p.Done) },
		obs.MQueueFailed:   func(p Progress) int64 { return int64(p.Failed) },
		obs.MQueueRetries:  func(p Progress) int64 { return p.Retries },
		obs.MQueueRequeues: func(p Progress) int64 { return p.Requeues },
	} {
		pick := pick
		obs.Default.GaugeFunc(name, func() int64 { return pick(q.Progress()) })
	}
}

// Lease is a claim on one site. The holder must Heartbeat often enough
// to keep the claim alive and finish with exactly one of Complete,
// Fail, or Release.
type Lease struct {
	q     *Queue
	token uint64
	// Site is the leased crawl target.
	Site crawler.Site
	// Attempt is 1 for the first try of a site, 2 for its first retry…
	Attempt int
}

// Lease blocks until a site is available and claims up to n ready sites
// (at least one), lowest seq first, in one claim step: a local crawl
// worker takes one, a fabric grant up to its batch size. Each lease is
// heartbeat and settled on its own. ok=false means the queue is drained
// (every site done or failed) or ctx is done. A blocked Lease sleeps
// until the next settle or the earliest backoff or lease deadline, so
// expired leases come back without anyone polling.
func (q *Queue) Lease(ctx context.Context, n int) ([]*Lease, bool) {
	// Check before each claim: a cancelled worker that Released its site
	// must not be handed the same site straight back.
	for ctx.Err() == nil {
		ls, changed, wait := q.claim(max(n, 1))
		if len(ls) > 0 {
			return ls, true
		}
		if changed == nil { // drained
			return nil, false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-changed:
		case <-timer.C:
		}
		timer.Stop()
	}
	return nil, false
}

// claim is Lease's one non-blocking step. In one pass in seq order it
// reclaims expired leases and claims up to n ready jobs. With nothing
// ready it returns the channel the next state change closes and how long
// until the earliest deadline; a drained queue returns neither.
func (q *Queue) claim(n int) (ls []*Lease, changed <-chan struct{}, wait time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	for _, dom := range q.order {
		j := q.jobs[dom]
		if j.state == stateLeased && !now.Before(j.expiry) {
			q.reclaimLocked(j, now)
		}
		if len(ls) == n || j.state != statePending || now.Before(j.readyAt) {
			continue
		}
		j.state = stateLeased
		j.attempts++
		j.expiry = now.Add(q.leaseTTL)
		q.tokens++
		j.token = q.tokens
		ls = append(ls, &Lease{q: q, token: j.token, Site: j.site, Attempt: j.attempts})
	}
	if len(ls) > 0 {
		return ls, nil, 0
	}
	if q.terminal == len(q.jobs) {
		return nil, nil, 0
	}
	return nil, q.signal, q.nextWakeLocked(now)
}

// Drained returns a channel that is closed once every job is done or
// failed — by the settle or restore that makes the last job terminal.
func (q *Queue) Drained() <-chan struct{} { return q.drained }

// finishLocked makes j terminal, closing drained if it was the last job
// that was not.
func (q *Queue) finishLocked(j *job, st jobState) {
	if j.state != stateDone && j.state != stateFailed {
		q.terminal++
		if q.terminal == len(q.jobs) {
			close(q.drained)
		}
	}
	j.state = st
}

// reclaimLocked re-queues a leased job whose TTL has elapsed. The
// reclaim consumes the dead attempt and is bounded by the same budget as
// ordinary failures, but the site becomes ready immediately: an expired
// lease indicates a dead worker, not a misbehaving site, so there is
// nothing to back off from.
func (q *Queue) reclaimLocked(j *job, now time.Time) {
	j.token = 0
	q.requeues++
	q.settleFailureLocked(j, "lease expired", now)
	if j.state == statePending {
		j.readyAt = now
	}
}

// settleFailureLocked routes a failed attempt: requeue with backoff, or
// mark failed once the attempt budget is spent.
func (q *Queue) settleFailureLocked(j *job, msg string, now time.Time) {
	j.lastErr = msg
	if j.attempts >= q.policy.MaxAttempts {
		q.finishLocked(j, stateFailed)
		return
	}
	j.state = statePending
	j.readyAt = now.Add(q.policy.Delay(j.attempts, q.rng))
	q.retries++
}

// nextWakeLocked computes how long a blocked Lease call may sleep:
// until the earliest backoff expiry or lease deadline.
func (q *Queue) nextWakeLocked(now time.Time) time.Duration {
	const idle = 250 * time.Millisecond
	wait := idle
	for _, j := range q.jobs {
		var at time.Time
		switch j.state {
		case statePending:
			at = j.readyAt
		case stateLeased:
			at = j.expiry
		default:
			continue
		}
		if d := at.Sub(now); d > 0 && d < wait {
			wait = d
		}
	}
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// wakeLocked signals every blocked Lease call that state changed.
func (q *Queue) wakeLocked() {
	close(q.signal)
	q.signal = make(chan struct{})
}

// valid reports whether the lease still owns its job.
func (l *Lease) valid(j *job) bool {
	return j != nil && j.state == stateLeased && j.token == l.token
}

// Heartbeat extends the lease TTL. It returns false when the lease has
// already been reclaimed (the worker should abandon the site).
func (l *Lease) Heartbeat() bool {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[l.Site.Domain]
	if !l.valid(j) {
		return false
	}
	j.expiry = q.now().Add(q.leaseTTL)
	return true
}

// Complete marks the site done. Stale leases are ignored (returns
// false).
func (l *Lease) Complete() bool {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[l.Site.Domain]
	if !l.valid(j) {
		return false
	}
	q.finishLocked(j, stateDone)
	j.token = 0
	q.wakeLocked()
	return true
}

// Fail reports a failed attempt: the site retries with backoff until
// the policy's attempt budget is spent, then turns failed with err as
// its last error. Stale leases are ignored.
func (l *Lease) Fail(err error) bool {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[l.Site.Domain]
	if !l.valid(j) {
		return false
	}
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	j.token = 0
	q.settleFailureLocked(j, msg, q.now())
	q.wakeLocked()
	return true
}

// Release returns the site to the queue without consuming the attempt —
// used when a crawl is cancelled rather than failed, so a resumed run
// retries the site with a fresh budget.
func (l *Lease) Release() bool {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[l.Site.Domain]
	if !l.valid(j) {
		return false
	}
	j.state = statePending
	j.attempts--
	j.token = 0
	j.readyAt = time.Time{}
	q.wakeLocked()
	return true
}

// Progress summarizes queue state.
type Progress struct {
	Total, Done, Failed, Pending, Leased int
	Retries, Requeues                    int64
}

// Progress returns a snapshot of the queue's counters.
func (q *Queue) Progress() Progress {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := Progress{Total: len(q.jobs), Retries: q.retries, Requeues: q.requeues}
	for _, j := range q.jobs {
		switch j.state {
		case stateDone:
			p.Done++
		case stateFailed:
			p.Failed++
		case stateLeased:
			p.Leased++
		default:
			p.Pending++
		}
	}
	return p
}
