package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
	"repro/internal/wsproto"
)

// A BatchRunner executes one grant — dispatch.GrantRunner's contract,
// behind the wire: it crawls every site in it once and hands each page
// record — already encoded as a page block (colstore.AppendPageBlock) —
// to emit. The block is valid only until emit returns: the runner may
// build its next block in the same storage, so emit writes it out
// synchronously and retains none of it. It must be
// deterministic per site: re-running a site with the same crawl config
// yields byte-identical blocks, which is what makes lease reclaims
// and duplicate attempts harmless (the fold deduplicates identical
// pages). failedSites reports the sites whose attempt failed — the
// coordinator retries each under its retry policy — and a non-nil err
// fails every site of the grant.
type BatchRunner interface {
	RunBatch(ctx context.Context, batch wire.Batch, emit func(site string, block []byte) error) (pages int, failedSites map[string]string, err error)
	Close() error
}

// WorkerConfig parameterizes a fabric worker.
type WorkerConfig struct {
	// Name identifies this worker in coordinator logs. Required.
	Name string
	// URL is the coordinator's ws:// endpoint. Required.
	URL string
	// NewRunner builds the grant executor once the first welcome frame
	// delivers the crawl config. Required.
	NewRunner func(wire.CrawlConfig) (BatchRunner, error)
	// Seed drives dial-retry backoff jitter and WebSocket masking —
	// the worker's only randomness, so runs are reproducible.
	Seed int64
	// DialRetry bounds reconnect attempts (zero value = 10 attempts, the
	// rest RetryPolicy's defaults).
	// Backoff counts *consecutive non-productive* attempts: any session
	// that is granted sites or hears the queue drained resets it, so a
	// worker survives coordinator restarts of any count, as long as the
	// coordinator comes back within the retry budget each time.
	DialRetry dispatch.RetryPolicy
	// WrapConn, when set, wraps the dialed connection before the
	// WebSocket handshake. It is a test seam: the fabric soak wraps
	// each dial in faultnet.WrapConn, whose read and write budgets fault
	// both directions of the link. A crawl's fault profile is not a link
	// fault: it reaches the worker's browsers through the welcome frame.
	WrapConn func(net.Conn) net.Conn
	// Logf receives progress lines; nil means silent.
	Logf func(format string, args ...any)
}

func (cfg *WorkerConfig) withDefaults() {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	// The attempt budget is the worker's own; the backoff is the retry
	// policy's default.
	if cfg.DialRetry.MaxAttempts <= 0 {
		cfg.DialRetry.MaxAttempts = 10
	}
	cfg.DialRetry = cfg.DialRetry.WithDefaults()
}

// worker is the connection-loop state of one RunWorker call.
type worker struct {
	cfg    WorkerConfig
	rng    *rand.Rand
	runner BatchRunner
	crawl  *wire.CrawlConfig
	ttl    time.Duration
}

// RunWorker pulls grants from the coordinator at cfg.URL and executes
// them until the coordinator reports the queue drained or ctx ends. It
// reconnects with seeded backoff across coordinator outages and
// abandons in-flight grants whose leases the coordinator invalidates
// (their sites are granted elsewhere; duplicate pages fold away).
// Returns nil once the crawl is drained.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" || cfg.URL == "" || cfg.NewRunner == nil {
		return fmt.Errorf("fabric: worker needs Name, URL, and NewRunner")
	}
	cfg.withDefaults()
	w := &worker{cfg: cfg, rng: detrand.New(cfg.Seed)}
	defer func() {
		if w.runner != nil {
			w.runner.Close()
		}
	}()

	failures := 0 // consecutive non-productive dials/sessions
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, productive, err := w.session(ctx)
		if done {
			return err
		}
		if productive {
			failures = 0
		} else {
			failures++
			if failures >= cfg.DialRetry.MaxAttempts {
				return fmt.Errorf("fabric: coordinator %s unreachable after %d attempts: %w",
					cfg.URL, failures, err)
			}
		}
		delay := cfg.DialRetry.Delay(failures, w.rng)
		if err != nil {
			w.cfg.Logf("fabric: worker %s: session ended: %v (retry in %s)", cfg.Name, err, delay)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// session runs one connection lifetime: dial, hello/welcome, then
// lease→run→settle until the conn breaks or the queue drains. done
// means RunWorker should return (drained, fatal config error, or ctx
// end); productive means the coordinator granted sites at least once or
// reported drained, which resets the reconnect budget.
func (w *worker) session(ctx context.Context) (done, productive bool, err error) {
	d := &wsproto.Dialer{
		// Masking bytes must not race the backoff rng: the keeper
		// goroutine writes heartbeats concurrently with page emits.
		Rand:     detrand.New(w.rng.Int63()),
		WrapConn: w.cfg.WrapConn,
	}
	conn, _, err := d.Dial(ctx, w.cfg.URL)
	if err != nil {
		return false, false, err
	}
	defer conn.Close()

	// Unblock any pending read when ctx ends mid-session.
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-sessionDone:
		}
	}()

	if err := writeFrame(conn, &wire.Hello{Worker: w.cfg.Name}); err != nil {
		return false, false, err
	}
	dec, err := readFrame(conn, 2*wsproto.HandshakeTimeout)
	if err != nil {
		return false, false, err
	}
	welcome, ok := dec.Msg.(*wire.Welcome)
	if !ok {
		return false, false, fmt.Errorf("fabric: expected welcome, got %q", dec.Type)
	}
	if w.crawl == nil {
		runner, err := w.cfg.NewRunner(welcome.Crawl)
		if err != nil {
			return true, false, err
		}
		w.runner = runner
		crawl := welcome.Crawl
		w.crawl = &crawl
	} else if !reflect.DeepEqual(*w.crawl, welcome.Crawl) {
		// The coordinator restarted with different flags; our synthetic
		// world no longer matches and silently mixing them would poison
		// the store. Refuse loudly.
		return true, false, fmt.Errorf("fabric: coordinator crawl config changed across reconnect: had %+v, got %+v",
			*w.crawl, welcome.Crawl)
	}
	w.ttl = time.Duration(welcome.LeaseTTLMillis) * time.Millisecond
	if w.ttl <= 0 {
		w.ttl = 30 * time.Second
	}
	idle := 2 * w.ttl
	if idle < 2*time.Second {
		idle = 2 * time.Second
	}

	for {
		if err := ctx.Err(); err != nil {
			return true, productive, err
		}
		if err := writeControl(conn, wire.TypeLease); err != nil {
			return false, productive, err
		}
		grant, drained, err := w.waitGrant(conn, idle)
		if err != nil {
			return false, productive, err
		}
		if drained {
			w.cfg.Logf("fabric: worker %s: queue drained", w.cfg.Name)
			return true, true, nil
		}
		productive = true
		w.cfg.Logf("fabric: worker %s: grant %s (%d sites)",
			w.cfg.Name, grant.Batch.ID, len(grant.Batch.Sites))
		connBroken, err := w.runBatch(ctx, conn, grant.Batch)
		if connBroken {
			return false, productive, err
		}
		if err != nil {
			return ctx.Err() != nil, productive, err
		}
	}
}

// waitGrant reads frames after a lease request until the coordinator
// grants sites or declares the queue drained; wait keepalives just
// refresh the deadline.
func (w *worker) waitGrant(conn *wsproto.Conn, idle time.Duration) (*wire.Grant, bool, error) {
	for {
		dec, err := readFrame(conn, idle)
		if err != nil {
			return nil, false, err
		}
		switch m := dec.Msg.(type) {
		case *wire.Grant:
			return m, false, nil
		case nil:
			switch dec.Type {
			case wire.TypeWait:
				continue
			case wire.TypeDrained:
				return nil, true, nil
			}
			return nil, false, fmt.Errorf("fabric: expected grant, got %q", dec.Type)
		default:
			return nil, false, fmt.Errorf("fabric: expected grant, got %q", dec.Type)
		}
	}
}

// runBatch executes one grant: it streams page frames as the runner
// produces them, heartbeats the grant from a keeper goroutine, and
// settles with a complete or fail frame. connBroken=true means the
// connection is unusable and session must return for a redial; the
// grant is implicitly abandoned (its leases expire and are reclaimed).
func (w *worker) runBatch(ctx context.Context, conn *wsproto.Conn, batch wire.Batch) (connBroken bool, err error) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// emit may be called concurrently by the runner's crawl workers;
	// wsproto serializes the writes, but the first-error latch needs its
	// own lock.
	var emitMu sync.Mutex
	var emitErr error
	emit := func(site string, block []byte) error {
		frame := pageFrames.Get().(*[]byte)
		*frame = wire.AppendPage((*frame)[:0], &wire.Page{Batch: batch.ID, Site: site, Line: block})
		err := conn.WriteMessage(wsproto.OpBinary, *frame)
		pageFrames.Put(frame)
		if err != nil {
			emitMu.Lock()
			if emitErr == nil {
				emitErr = err
			}
			emitMu.Unlock()
			cancel() // no point crawling on; the coordinator can't hear us
			return err
		}
		return nil
	}

	// The keeper owns the connection's read side for the duration of
	// the grant: the coordinator sends nothing unsolicited, so the only
	// inbound frames are acks to our own heartbeats, and each send is
	// followed synchronously by its ack read — no frames are left
	// behind for the post-grant reader.
	period := heartbeatPeriod(w.ttl)
	stop := make(chan struct{})
	kdone := make(chan error, 1)
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				kdone <- nil
				return
			case <-bctx.Done():
				kdone <- nil
				return
			case <-t.C:
				if err := writeFrame(conn, &wire.Heartbeat{Batch: batch.ID}); err != nil {
					cancel()
					kdone <- err
					return
				}
				dec, err := readFrame(conn, w.ttl)
				if err != nil {
					cancel()
					kdone <- err
					return
				}
				ack, ok := dec.Msg.(*wire.HeartbeatAck)
				if !ok || ack.Batch != batch.ID {
					cancel()
					kdone <- fmt.Errorf("fabric: expected heartbeat_ack for %s, got %q", batch.ID, dec.Type)
					return
				}
				if !ack.Valid {
					// Lease reclaimed (we were presumed dead). Abandon:
					// whoever re-runs the sites emits identical bytes.
					cancel()
					kdone <- errLeaseLost
					return
				}
			}
		}
	}()

	pages, failedSites, runErr := w.runner.RunBatch(bctx, batch, emit)
	close(stop)
	keeperErr := <-kdone

	switch {
	case emitErr != nil:
		return true, emitErr
	case keeperErr == errLeaseLost:
		w.cfg.Logf("fabric: worker %s: lease for %s reclaimed, abandoning", w.cfg.Name, batch.ID)
		return false, nil
	case keeperErr != nil:
		return true, keeperErr
	case ctx.Err() != nil:
		return false, ctx.Err()
	case runErr != nil:
		w.cfg.Logf("fabric: worker %s: grant %s failed: %v", w.cfg.Name, batch.ID, runErr)
		err := writeFrame(conn, &wire.Fail{Batch: batch.ID, Err: runErr.Error()})
		return err != nil, err
	default:
		if err := writeFrame(conn, &wire.Complete{Batch: batch.ID, Pages: pages, FailedSites: failedSites}); err != nil {
			return true, err
		}
		w.cfg.Logf("fabric: worker %s: grant %s complete (%d pages)", w.cfg.Name, batch.ID, pages)
		return false, nil
	}
}

// pageFrames pools the buffers emit builds page frames in. A frame's
// buffer goes back once WriteMessage returns, which has copied the
// frame into the connection's write scratch.
var pageFrames = sync.Pool{New: func() any { return new([]byte) }}

// heartbeatPeriod is how often a worker heartbeats a lease of the given
// TTL, and how often the coordinator sends a worker waiting for a grant
// a wait keepalive.
func heartbeatPeriod(ttl time.Duration) time.Duration {
	if p := ttl / 3; p >= 10*time.Millisecond {
		return p
	}
	return 10 * time.Millisecond
}

// errLeaseLost marks a grant abandoned because the coordinator
// invalidated its lease; it never escapes RunWorker.
var errLeaseLost = errors.New("fabric: lease lost")
