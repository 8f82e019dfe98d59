package dispatch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
)

// TestLeaseConcurrentSettleAndReclaim is the race audit for the lease
// lifecycle, mirroring the crawler/labeler race-audit precedent: for
// each of many jobs, a holder goroutine hammers Heartbeat and then
// settles (Complete or Fail) while a clock goroutine forces lease expiry
// through an advancing injected clock, so the other holders' Lease calls
// reclaim the lease — the exact interleaving a dead-worker reclaim races
// against a worker that was merely slow. Under -race (the Makefile gate runs this package
// with GOMAXPROCS=4) any unsynchronized access fails the run; the
// invariant checks catch double settlement: every job must settle
// exactly once into a terminal state, no matter who wins the race.
func TestLeaseConcurrentSettleAndReclaim(t *testing.T) {
	const jobs = 64
	sites := make([]crawler.Site, jobs)
	for i := range sites {
		sites[i] = crawler.Site{Domain: domainN(i), Rank: i + 1}
	}

	// An atomically advancing fake clock: the clock goroutine jumps it
	// past the lease TTL, so the reclaim inside one holder's Lease and
	// another's Heartbeat/settle calls genuinely interleave on the same
	// leases.
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	ttl := 10 * time.Millisecond
	q := NewQueue(sites, QueueConfig{
		LeaseTTL: ttl,
		Seed:     1,
		Now:      now,
		Retry:    RetryPolicy{MaxAttempts: 8, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, JitterFrac: -1},
	})

	stop := make(chan struct{})
	clockDone := make(chan struct{})
	go func() { // advance the clock past TTLs
		defer close(clockDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock.Add(int64(ttl) / 2)
		}
	}()

	const holders = 8
	var wg sync.WaitGroup
	wg.Add(holders)
	for w := 0; w < holders; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				l, ok := q.Lease(context.Background())
				if !ok {
					return
				}
				// Hammer heartbeats; a false return means a reclaim won
				// and this lease is dead — settles must then be
				// no-ops (asserted via the terminal counts below).
				alive := true
				for i := 0; i < 3; i++ {
					if !l.Heartbeat() {
						alive = false
						break
					}
				}
				var settled bool
				if w%2 == 0 {
					settled = l.Complete()
				} else {
					settled = l.Fail(Fatal(errors.New("holder failed")))
				}
				if settled && !alive {
					// Settling can still win if expiry happened after the
					// last heartbeat check — that is fine; what cannot
					// happen is settling twice, checked below.
					continue
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("queue never drained: leases lost to the race")
	}
	close(stop)
	<-clockDone

	p := q.Progress()
	if p.Done+p.Failed != jobs || p.Pending != 0 || p.Leased != 0 {
		t.Fatalf("non-terminal final state: %+v", p)
	}
	// Every job settled exactly once: terminal states partition the jobs.
	recs := q.ExportJobs()
	var doneN, failN int
	for _, r := range recs {
		switch r.State {
		case JobDone:
			doneN++
		case JobFailed:
			failN++
		default:
			t.Fatalf("job %s left %s", r.Domain, r.State)
		}
	}
	if doneN != p.Done || failN != p.Failed {
		t.Fatalf("snapshot/export disagree: %d/%d vs %+v", doneN, failN, p)
	}
	t.Logf("done=%d failed=%d reclaims=%d", doneN, failN, p.Requeues)
}

// domainN names the i-th synthetic job.
func domainN(i int) string {
	return string([]byte{'s', byte('a' + i/26), byte('a' + i%26)}) + ".com"
}

// TestLeaseStaleSettleIsNoOp pins the token rule the race above relies
// on: once a lease is reclaimed, its holder's Heartbeat, Complete, Fail
// and Release all return false and leave the re-granted job untouched.
func TestLeaseStaleSettleIsNoOp(t *testing.T) {
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	q := NewQueue([]crawler.Site{{Domain: "a.com", Rank: 1}}, QueueConfig{
		LeaseTTL: time.Millisecond, Seed: 1, Now: now,
		Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, JitterFrac: -1},
	})
	ctx := context.Background()
	l, ok := q.Lease(ctx)
	if !ok {
		t.Fatal("no lease")
	}
	clock.Add(int64(time.Second)) // expire it
	l2, ok := q.Lease(ctx)        // reclaims it and grants it again
	if !ok || l2.Attempt != 2 || q.Progress().Requeues != 1 {
		t.Fatalf("lease after expiry = %+v, %v, progress %+v; want the reclaimed job's attempt 2", l2, ok, q.Progress())
	}
	if l.Heartbeat() || l.Complete() || l.Fail(errors.New("late")) || l.Release() {
		t.Error("stale lease operations succeeded")
	}
	p := q.Progress()
	if p.Leased != 1 || p.Done != 0 || p.Failed != 0 || !l2.Heartbeat() {
		t.Errorf("re-granted job disturbed by stale settles: %+v", p)
	}
}
