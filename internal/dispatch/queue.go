package dispatch

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/obs"
)

// jobState is the lifecycle of one queued site.
type jobState int

const (
	statePending jobState = iota
	stateLeased
	stateDone // this state and the next are terminal
	stateFailed
)

// job is one site's queue entry.
type job struct {
	site     crawler.Site
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
// blocked Grant wakes on the next settle or deadline, and Drained closes
// when the last job turns terminal. All methods are safe for concurrent
// use. It keeps books instead of scanning: per-state counts make
// Progress O(1), and every lease and backed-off retry lies between the
// settled and frontier cursors, a window throughput × backoff wide.
type Queue struct {
	mu       sync.Mutex
	jobs     []job          // in seq (site-list) order
	index    map[string]int // domain → position in jobs
	settled  int            // jobs[:settled] are terminal
	frontier int            // jobs[frontier:] were never leased
	count    [4]int         // jobs per state
	leaseTTL time.Duration
	policy   RetryPolicy
	rng      *rand.Rand // jitter source
	now      func() time.Time
	signal   chan struct{} // closed and replaced on every state change
	drained  chan struct{} // closed once every job is terminal

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
		jobs:     make([]job, 0, len(sites)),
		index:    make(map[string]int, len(sites)),
		leaseTTL: cfg.LeaseTTL,
		policy:   cfg.Retry.WithDefaults(),
		rng:      detrand.New(cfg.Seed),
		now:      cfg.Now,
		signal:   make(chan struct{}),
		drained:  make(chan struct{}),
	}
	for _, s := range sites {
		if _, dup := q.index[s.Domain]; dup {
			continue
		}
		q.index[s.Domain] = len(q.jobs)
		q.jobs = append(q.jobs, job{site: s})
	}
	q.count[statePending] = len(q.jobs)
	if len(q.jobs) == 0 {
		close(q.drained)
	}
	q.exportGauges()
	return q
}

// exportGauges registers the queue's depth and retry counters as
// function gauges on the obs registry, so the progress reporter and the
// expvar endpoint see live queue state. Each gauge reads Progress, the
// queue's kept counts, under the queue lock: O(1) at any crawl size.
// A newer queue (the next crawl of a study) simply
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
// to keep the claim alive and finish with exactly one settle
// (Grant.Settle) or Release.
type Lease struct {
	q     *Queue
	j     *job
	token uint64
	// Site is the leased crawl target.
	Site crawler.Site
	// Attempt is 1 for the first try of a site, 2 for its first retry…
	Attempt int
}

// lease blocks until a site is available and claims up to n ready sites
// (at least one), lowest seq first, in one claim step: a local crawl
// worker takes one, a fabric grant up to its batch size. Each lease is
// heartbeat and settled on its own. ok=false means the queue is drained
// (every site done or failed) or ctx is done. A blocked lease sleeps
// until the next settle or the earliest backoff or lease deadline, so
// expired leases come back without anyone polling. expired holds the
// outcome rows of the leases its claim steps reclaimed, whatever ok is:
// the caller owes them to the ledger, as Grant hands them on.
func (q *Queue) lease(ctx context.Context, n int) (ls []*Lease, expired []colstore.Outcome, ok bool) {
	// Check before each claim: a cancelled worker that Released its site
	// must not be handed the same site straight back.
	for ctx.Err() == nil {
		ls, rows, changed, wait := q.claim(max(n, 1))
		expired = append(expired, rows...)
		if len(ls) > 0 {
			return ls, expired, true
		}
		if changed == nil { // drained
			return nil, expired, false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-changed:
		case <-timer.C:
		}
		timer.Stop()
	}
	return nil, expired, false
}

// claim is lease's one non-blocking step. In seq order it reclaims
// expired leases and claims up to n ready jobs: it reads the window, then
// past the frontier (terminal or ready jobs) until n are claimed. It
// returns the outcome row of each lease it reclaimed. With nothing ready
// it returns the channel the next state change closes and how long until
// the earliest deadline; a drained queue returns neither.
func (q *Queue) claim(n int) (ls []*Lease, expired []colstore.Outcome, changed <-chan struct{}, wait time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	for q.settled < len(q.jobs) && q.jobs[q.settled].state >= stateDone {
		q.settled++
	}
	for i := q.settled; i < q.frontier; i++ {
		j := &q.jobs[i]
		if j.state == stateLeased && !now.Before(j.expiry) {
			expired = append(expired, q.reclaimLocked(j, now))
		}
		if len(ls) < n && j.state == statePending && !now.Before(j.readyAt) {
			ls = append(ls, q.leaseLocked(j, now))
		}
	}
	for ; len(ls) < n && q.frontier < len(q.jobs); q.frontier++ {
		if j := &q.jobs[q.frontier]; j.state == statePending {
			ls = append(ls, q.leaseLocked(j, now))
		}
	}
	if len(ls) > 0 {
		return ls, expired, nil, 0
	}
	if q.count[statePending]+q.count[stateLeased] == 0 { // drained
		return nil, expired, nil, 0
	}
	return nil, expired, q.signal, q.nextWakeLocked(now)
}

// leaseLocked grants a lease on the pending job j.
func (q *Queue) leaseLocked(j *job, now time.Time) *Lease {
	q.setLocked(j, stateLeased)
	j.attempts++
	j.expiry = now.Add(q.leaseTTL)
	q.tokens++
	j.token = q.tokens
	return &Lease{q: q, j: j, token: j.token, Site: j.site, Attempt: j.attempts}
}

// restore applies a resumed store's outcome rows, in seal order, to a
// fresh queue: done and failed rows make their sites terminal, a failed
// row keeping its error, and every row restores the attempts its site
// had settled. Rows of sites not in the queue are ignored. It returns
// how many sites turned done.
func (q *Queue) restore(rows []colstore.Outcome) (done int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, row := range rows {
		i, ok := q.index[row.Domain]
		if !ok || q.jobs[i].state >= stateDone {
			continue
		}
		j := &q.jobs[i]
		j.attempts = max(j.attempts, row.Attempt)
		j.lastErr = row.Err
		switch row.State {
		case colstore.OutcomeDone:
			q.setLocked(j, stateDone)
			done++
		case colstore.OutcomeFailed:
			q.setLocked(j, stateFailed)
		}
	}
	q.wakeLocked()
	return done
}

// Drained returns a channel that is closed once every job is done or
// failed — by the settle or restore that makes the last job terminal.
func (q *Queue) Drained() <-chan struct{} { return q.drained }

// setLocked moves j to state st and keeps the per-state counts, closing
// drained when j is the last job to turn terminal.
func (q *Queue) setLocked(j *job, st jobState) {
	was := j.state
	q.count[j.state]--
	q.count[st]++
	j.state = st
	if was < stateDone && st >= stateDone && q.count[stateDone]+q.count[stateFailed] == len(q.jobs) {
		close(q.drained)
	}
}

// reclaimLocked re-queues a leased job whose TTL has elapsed and
// returns the expired attempt's outcome row. The reclaim consumes the
// dead attempt and is bounded by the same budget as ordinary failures,
// but the site becomes ready immediately: an expired lease indicates a
// dead worker, not a misbehaving site, so there is nothing to back off
// from.
func (q *Queue) reclaimLocked(j *job, now time.Time) colstore.Outcome {
	j.token = 0
	q.requeues++
	row := q.settleFailureLocked(j, "lease expired", now)
	if j.state == statePending {
		j.readyAt = now
	}
	return row
}

// settleFailureLocked routes a failed attempt — requeue with backoff, or
// mark failed once the attempt budget is spent — and returns its outcome
// row.
func (q *Queue) settleFailureLocked(j *job, msg string, now time.Time) colstore.Outcome {
	j.lastErr = msg
	row := colstore.Outcome{Domain: j.site.Domain, Attempt: j.attempts, State: colstore.OutcomeFailed, Err: msg}
	if j.attempts >= q.policy.MaxAttempts {
		q.setLocked(j, stateFailed)
		return row
	}
	q.setLocked(j, statePending)
	j.readyAt = now.Add(q.policy.Delay(j.attempts, q.rng))
	q.retries++
	row.State = colstore.OutcomeRetry
	return row
}

// nextWakeLocked computes how long a blocked lease call may sleep:
// until the earliest backoff expiry or lease deadline, all of which lie
// in the claim window.
func (q *Queue) nextWakeLocked(now time.Time) time.Duration {
	const idle = 250 * time.Millisecond
	wait := idle
	for i := q.settled; i < q.frontier; i++ {
		j := &q.jobs[i]
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

// wakeLocked signals every blocked lease call that state changed.
func (q *Queue) wakeLocked() {
	close(q.signal)
	q.signal = make(chan struct{})
}

// Heartbeat extends the lease TTL. It returns false when the lease has
// already been reclaimed (the worker should abandon the site).
func (l *Lease) Heartbeat() bool {
	q, j := l.q, l.j
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != stateLeased || j.token != l.token {
		return false
	}
	j.expiry = q.now().Add(q.leaseTTL)
	return true
}

// settle ends the lease's attempt — done with a nil failure; else
// failed, so the site retries with backoff until the policy's attempt
// budget is spent and then turns failed with the failure as its last
// error — and returns its outcome row. ok=false means the lease was
// stale (reclaimed, released or settled) and nothing changed.
func (l *Lease) settle(failure error) (row colstore.Outcome, ok bool) {
	q, j := l.q, l.j
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != stateLeased || j.token != l.token {
		return row, false
	}
	j.token = 0
	if failure != nil {
		row = q.settleFailureLocked(j, failure.Error(), q.now())
	} else {
		row = colstore.Outcome{Domain: j.site.Domain, Attempt: l.Attempt, State: colstore.OutcomeDone}
		q.setLocked(j, stateDone)
	}
	q.wakeLocked()
	return row, true
}

// Release returns the site to the queue without consuming the attempt —
// used when a crawl is cancelled rather than failed, so a resumed run
// retries the site with a fresh budget.
func (l *Lease) Release() bool {
	q, j := l.q, l.j
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != stateLeased || j.token != l.token {
		return false
	}
	q.setLocked(j, statePending)
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
	return Progress{
		Total: len(q.jobs), Done: q.count[stateDone], Failed: q.count[stateFailed],
		Pending: q.count[statePending], Leased: q.count[stateLeased],
		Retries: q.retries, Requeues: q.requeues,
	}
}

// FailedSites maps each site that spent its attempt budget to its last error.
func (q *Queue) FailedSites() map[string]string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]string, q.count[stateFailed])
	for i := range q.jobs {
		if j := &q.jobs[i]; j.state == stateFailed {
			out[j.site.Domain] = j.lastErr
		}
	}
	return out
}
