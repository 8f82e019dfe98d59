package fabric

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
)

// leaseHold holds back the first lease frame a worker writes, on
// whichever of its conns that is, until release is closed; held is
// closed once the write is waiting.
type leaseHold struct {
	size    int // a masked lease frame's length on the wire
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func newLeaseHold(t *testing.T) *leaseHold {
	lease, err := wire.EncodeControl(wire.TypeLease)
	if err != nil || len(lease) >= 126 {
		t.Fatalf("lease frame %q, %v: want a short one", lease, err)
	}
	// A client frame of under 126 bytes: two header bytes, a four-byte
	// mask, the payload — in one Write (wsproto coalesces them).
	return &leaseHold{size: 2 + 4 + len(lease), held: make(chan struct{}), release: make(chan struct{})}
}

func (h *leaseHold) wrap(nc net.Conn) net.Conn { return &holdConn{Conn: nc, h: h} }

type holdConn struct {
	net.Conn
	h *leaseHold
}

func (c *holdConn) Write(p []byte) (int, error) {
	if len(p) == c.h.size {
		first := false
		c.h.once.Do(func() { first = true })
		if first {
			close(c.h.held)
			<-c.h.release
		}
	}
	return c.Conn.Write(p)
}

// TestDrainedReachesALeaseInFlight: a worker whose lease request is
// still on the wire when another worker's settle drains the queue is
// owed drained too. Its request is held back until the other worker has
// drained the queue and the coordinator has closed; it must then hear
// drained — RunWorker returns nil — rather than a bare close, after
// which it would redial a finished coordinator and fail.
func TestDrainedReachesALeaseInFlight(t *testing.T) {
	c := startTestCoordinator(t, t.TempDir(), testSites(4), coordOpts{batchSize: 16})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	hold := newLeaseHold(t)
	held := make(chan error, 1)
	go func() {
		held <- RunWorker(ctx, WorkerConfig{
			Name: "w0", URL: c.URL(),
			NewRunner: func(cfg wire.CrawlConfig) (BatchRunner, error) {
				return &fakeRunner{pagesPerSite: cfg.PagesPerSite}, nil
			},
			WrapConn:  hold.wrap,
			DialRetry: dispatch.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		})
	}()
	select {
	case <-hold.held:
	case err := <-held:
		t.Fatalf("w0 ended before its lease request: %v", err)
	case <-ctx.Done():
		t.Fatal("w0 never wrote a lease request")
	}

	if err := runTestWorker(ctx, "w1", c.URL(), workerOpts{seed: 2}); err != nil {
		t.Fatalf("w1: %v", err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	select {
	case err := <-held:
		if err != nil {
			t.Fatalf("w0, its lease request on the wire as the queue drained: %v; want nil (drained)", err)
		}
	case <-ctx.Done():
		t.Fatal("w0 still running after the coordinator closed")
	}
}

// TestDrainedFollowsTheCommit: a worker that hears drained exits, so
// every settled attempt is sealed before any worker hears it. A
// coordinator killed after that must resume with nothing left to crawl,
// for no worker would come back to crawl it.
func TestDrainedFollowsTheCommit(t *testing.T) {
	dir := t.TempDir()
	sites := testSites(5) // fewer than a commit's worth of settles
	c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 16})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
		t.Fatalf("w0: %v", err)
	}
	// The worker heard drained; the coordinator has not been closed.
	if done, _ := sealedDone(t, filepath.Join(dir, "store")); done != len(sites) {
		t.Fatalf("a worker heard drained with %d of %d sites sealed done", done, len(sites))
	}
}
