package dispatch

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crawler"
)

// fakeClock is a manually advanced clock for lease/backoff tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testSites(n int) []crawler.Site {
	sites := make([]crawler.Site, n)
	for i := range sites {
		sites[i] = crawler.Site{Domain: string(rune('a'+i)) + ".example", Rank: i + 1}
	}
	return sites
}

func newTestQueue(n int, ttl time.Duration, retry RetryPolicy) (*Queue, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	q := NewQueue(testSites(n), QueueConfig{LeaseTTL: ttl, Retry: retry, Seed: 1, Now: clk.now})
	return q, clk
}

func TestQueueLeaseOrderAndComplete(t *testing.T) {
	q, _ := newTestQueue(3, time.Minute, RetryPolicy{})
	ctx := context.Background()
	var got []string
	for i := 0; i < 3; i++ {
		l, ok := q.Lease(ctx)
		if !ok {
			t.Fatal("queue drained early")
		}
		if l.Attempt != 1 {
			t.Errorf("attempt = %d", l.Attempt)
		}
		got = append(got, l.Site.Domain)
		if !l.Complete() {
			t.Error("complete rejected")
		}
	}
	want := []string{"a.example", "b.example", "c.example"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lease order %v, want %v", got, want)
		}
	}
	if _, ok := q.Lease(ctx); ok {
		t.Error("drained queue still leased")
	}
	p := q.Progress()
	if p.Done != 3 || p.Failed != 0 || p.Pending != 0 {
		t.Errorf("progress = %+v", p)
	}
}

func TestQueueRetryWithBackoffThenBudgetExhaustion(t *testing.T) {
	q, clk := newTestQueue(1, time.Minute, RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second})
	ctx := context.Background()

	for attempt := 1; attempt <= 3; attempt++ {
		clk.advance(time.Second) // clear any backoff gate
		l, ok := q.Lease(ctx)
		if !ok {
			t.Fatalf("attempt %d: queue drained", attempt)
		}
		if l.Attempt != attempt {
			t.Errorf("attempt = %d, want %d", l.Attempt, attempt)
		}
		l.Fail(errors.New("flaky"))
	}
	clk.advance(time.Minute)
	if _, ok := q.Lease(ctx); ok {
		t.Error("exhausted site leased again")
	}
	p := q.Progress()
	if p.Failed != 1 {
		t.Errorf("failed = %d", p.Failed)
	}
	if p.Retries != 2 {
		t.Errorf("retries = %d, want 2", p.Retries)
	}
	if rec := q.ExportJobs()[0]; rec.State != JobFailed || rec.LastErr != "flaky" {
		t.Errorf("exported %+v, want failed with message flaky", rec)
	}
}

func TestQueueFatalErrorSkipsRetry(t *testing.T) {
	q, _ := newTestQueue(1, time.Minute, RetryPolicy{MaxAttempts: 5})
	l, ok := q.Lease(context.Background())
	if !ok {
		t.Fatal("no lease")
	}
	l.Fail(Fatal(errors.New("永 broken")))
	p := q.Progress()
	if p.Failed != 1 || p.Retries != 0 {
		t.Errorf("progress after fatal = %+v", p)
	}
}

func TestQueueLeaseExpiryRequeuesAndIgnoresStaleLease(t *testing.T) {
	q, clk := newTestQueue(1, 10*time.Second, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	ctx := context.Background()

	l1, ok := q.Lease(ctx)
	if !ok {
		t.Fatal("no lease")
	}
	clk.advance(11 * time.Second) // lease dies unheartbeaten

	l2, ok := q.Lease(ctx)
	if !ok {
		t.Fatal("expired site not requeued")
	}
	if l2.Site.Domain != l1.Site.Domain {
		t.Errorf("leased %s, want %s", l2.Site.Domain, l1.Site.Domain)
	}
	if l2.Attempt != 2 {
		t.Errorf("attempt after expiry = %d, want 2", l2.Attempt)
	}
	if q.Progress().Requeues != 1 {
		t.Errorf("requeues = %d", q.Progress().Requeues)
	}
	// The zombie worker's completion must not clobber the new lease.
	if l1.Complete() {
		t.Error("stale lease completed")
	}
	if l1.Heartbeat() {
		t.Error("stale lease heartbeat accepted")
	}
	if !l2.Complete() {
		t.Error("live lease rejected")
	}
}

func TestQueueHeartbeatKeepsLeaseAlive(t *testing.T) {
	q, clk := newTestQueue(2, 10*time.Second, RetryPolicy{})
	ctx := context.Background()
	l1, _ := q.Lease(ctx)
	clk.advance(8 * time.Second)
	if !l1.Heartbeat() {
		t.Fatal("heartbeat rejected")
	}
	clk.advance(8 * time.Second) // t=16s < heartbeat(8s)+TTL(10s)
	l2, ok := q.Lease(ctx)
	if !ok {
		t.Fatal("second site unavailable")
	}
	if l2.Site.Domain == l1.Site.Domain {
		t.Error("heartbeaten lease was reclaimed")
	}
	if !l1.Complete() {
		t.Error("heartbeaten lease no longer valid")
	}
}

func TestQueueReleaseDoesNotConsumeAttempt(t *testing.T) {
	q, _ := newTestQueue(1, time.Minute, RetryPolicy{})
	ctx := context.Background()
	l, _ := q.Lease(ctx)
	if !l.Release() {
		t.Fatal("release rejected")
	}
	l2, ok := q.Lease(ctx)
	if !ok {
		t.Fatal("released site unavailable")
	}
	if l2.Attempt != 1 {
		t.Errorf("attempt after release = %d, want 1", l2.Attempt)
	}
}

func TestQueueLeaseRespectsContext(t *testing.T) {
	q, _ := newTestQueue(1, time.Minute, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour})
	ctx := context.Background()
	l, _ := q.Lease(ctx)
	l.Fail(errors.New("flaky")) // requeued with a 1h backoff
	cctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := q.Lease(cctx); ok {
		t.Error("leased a site still in backoff")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Lease did not honor context cancellation")
	}
}

func TestRetryPolicyDelayGrowthAndJitter(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, JitterFrac: -1}.withDefaults()
	if p.JitterFrac != 0 {
		t.Fatalf("JitterFrac = %v", p.JitterFrac)
	}
	if d := p.Delay(1, nil); d != 100*time.Millisecond {
		t.Errorf("delay(1) = %v", d)
	}
	if d := p.Delay(2, nil); d != 200*time.Millisecond {
		t.Errorf("delay(2) = %v", d)
	}
	if d := p.Delay(10, nil); d != time.Second {
		t.Errorf("delay(10) = %v, want cap", d)
	}

	jittered := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.5}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d := jittered.Delay(1, rng)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [100ms, 150ms]", d)
		}
	}
	// Same seed ⇒ same jitter sequence.
	a := jittered.Delay(2, rand.New(rand.NewSource(3)))
	b := jittered.Delay(2, rand.New(rand.NewSource(3)))
	if a != b {
		t.Errorf("jitter not deterministic: %v vs %v", a, b)
	}
}

func TestDefaultClassify(t *testing.T) {
	if DefaultClassify(errors.New("x")) != Retryable {
		t.Error("plain error not retryable")
	}
	if DefaultClassify(Fatal(errors.New("x"))) != FatalClass {
		t.Error("Fatal error not fatal")
	}
	wrapped := errors.Join(errors.New("context"), Fatal(errors.New("inner")))
	if !IsFatal(wrapped) {
		t.Error("IsFatal missed wrapped fatal")
	}
}
