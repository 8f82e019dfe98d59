package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/wsproto"
)

// CoordinatorConfig parameterizes a crawl coordinator.
type CoordinatorConfig struct {
	// Crawl is the crawl identity and world configuration broadcast to
	// every worker in the welcome frame. Name must be non-empty.
	Crawl wire.CrawlConfig
	// Sites is the full crawl target list, in rank order. Required.
	Sites []crawler.Site
	// BatchSize is the number of sites per leased batch (default 16).
	BatchSize int
	// NumShards is the spool shard count (default 8).
	NumShards int
	// LeaseTTL bounds how long a batch may go without a heartbeat
	// before its lease is reclaimed (default 30s).
	LeaseTTL time.Duration
	// Retry is the batch retry policy (zero value = defaults).
	Retry dispatch.RetryPolicy
	// CheckpointPath is the coordinator's durable state file. Required.
	CheckpointPath string
	// SpoolDir receives the sharded JSONL spool files. Required.
	SpoolDir string
	// Resume loads CheckpointPath (when present) and skips completed
	// batches instead of starting from scratch.
	Resume bool
	// StoreDir, when non-empty, also ingests every streamed page record
	// into a columnar store at this directory, sealed at each checkpoint
	// boundary, so the crawl is queryable (cmd/wsquery, or Store for the
	// in-process API) while it runs; Finalize then derives the dataset
	// from it. The spool keeps the raw lines regardless — merging them is
	// the differential oracle the store must match byte for byte.
	StoreDir string
	// Fault, when enabled, degrades every accepted worker connection
	// with the given faultnet profile (fresh schedule per conn, keyed
	// on FaultSeed).
	Fault     faultnet.Profile
	FaultSeed int64
	// Logf, when set, receives progress lines (grants, completions). The
	// e2e harness reads them off stderr to time its kills; nil means
	// silent.
	Logf func(format string, args ...any)
}

// Coordinator serves deterministic job batches to a worker fleet over
// the fabric protocol and appends their page records to the crawl's
// dispatch.Ledger. Batch leasing, heartbeats, TTL reclaim, and retry
// budgets all reuse dispatch.Queue with batches as the leased unit, and
// the queue is the coordinator's only clock: a waiting session blocks in
// its Lease, and Wait in its Drained. The ledger commits after every
// settled batch, so a killed coordinator resumes without losing completed
// work. What is the coordinator's own is the wire session loop and the
// decision when to commit; everything durable is the ledger's (DESIGN.md
// §7).
type Coordinator struct {
	cfg     CoordinatorConfig
	batches map[string]wire.Batch // by batch ID
	queue   *dispatch.Queue
	ledger  *dispatch.Ledger
	ln      net.Listener

	mu          sync.Mutex
	failedSites map[string]string
	conns       map[*wsproto.Conn]struct{}
	closed      bool

	resumedDone int

	// answering is read-held by a session from reading a frame until its
	// answer is written. Wait takes it once the queue has drained, so it
	// returns only after every answer then owed — drained, for a lease or
	// a settle — is out. A session may block while holding it (in Lease),
	// but never on Wait: once the queue has drained, Lease returns at once.
	answering sync.RWMutex
	cancel    context.CancelFunc // ends every session's Lease
	wg        sync.WaitGroup
}

// StartCoordinator builds the batch plan, opens the crawl's ledger
// (restoring any checkpoint), and starts serving workers on addr
// (host:port; ":0" picks a port — see Addr).
func StartCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Crawl.Name == "" || len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs a crawl name and a site list")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	batches := MakeBatches(cfg.Sites, cfg.BatchSize, cfg.Crawl.Seed)
	byID := make(map[string]wire.Batch, len(batches))
	pseudo := make([]crawler.Site, len(batches))
	for i, b := range batches {
		byID[b.ID] = b
		pseudo[i] = crawler.Site{Domain: b.ID, Rank: b.Seq}
	}
	c := &Coordinator{
		cfg:         cfg,
		batches:     byID,
		failedSites: map[string]string{},
		conns:       map[*wsproto.Conn]struct{}{},
	}
	c.queue = dispatch.NewQueue(pseudo, dispatch.QueueConfig{
		LeaseTTL: cfg.LeaseTTL,
		Retry:    cfg.Retry,
		Seed:     cfg.Crawl.Seed,
	})

	ledger, err := dispatch.OpenLedger(dispatch.LedgerConfig{
		Crawl: dispatch.Checkpoint{
			Name:         cfg.Crawl.Name,
			Seed:         cfg.Crawl.Seed,
			NumShards:    cfg.NumShards,
			PagesPerSite: cfg.Crawl.PagesPerSite,
			TotalSites:   len(cfg.Sites),
			BatchSize:    cfg.BatchSize,
		},
		Meta:           c.meta(),
		SpoolDir:       cfg.SpoolDir,
		CheckpointPath: cfg.CheckpointPath,
		StoreDir:       cfg.StoreDir,
		Resume:         cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	c.ledger = ledger
	if cp := ledger.Resumed(); cp != nil {
		// Batch membership is re-derived from the seed above; the
		// checkpoint only says which batch IDs are settled.
		c.queue.RestoreJobs(cp.Jobs())
		for dom, msg := range cp.FailedSites {
			c.failedSites[dom] = msg
		}
		c.resumedDone = len(cp.Done)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ledger.Close()
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	if cfg.Fault.Enabled() {
		ln = faultnet.WrapListener(ln, cfg.Fault, cfg.FaultSeed, faultnet.ModePerConn)
	}
	c.ln = ln

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go c.acceptLoop(ctx)
	c.logf("fabric: coordinator on %s: %d sites in %d batches (%d resumed done)",
		ln.Addr(), len(cfg.Sites), len(batches), c.resumedDone)
	return c, nil
}

// meta is the dataset identity the crawl config implies — the same one
// core.FabricDatasetMeta derives from the spec the config came from.
func (c *Coordinator) meta() analysis.DatasetMeta {
	return analysis.DatasetMeta{Name: c.cfg.Crawl.Name, Era: c.cfg.Crawl.Era, CrawlIndex: c.cfg.Crawl.CrawlIndex}
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// URL returns the ws:// URL workers dial.
func (c *Coordinator) URL() string { return fmt.Sprintf("ws://%s/fabric", c.ln.Addr()) }

// Progress snapshots the batch queue (Total/Done/Failed count batches,
// not sites).
func (c *Coordinator) Progress() dispatch.Progress { return c.queue.Progress() }

// ResumedDone is how many batches the checkpoint already covered.
func (c *Coordinator) ResumedDone() int { return c.resumedDone }

// FailedSites returns permanently failed sites reported by workers.
func (c *Coordinator) FailedSites() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.failedSites))
	for dom, msg := range c.failedSites {
		out[dom] = msg
	}
	return out
}

// Wait blocks until every batch is settled and each session that owed a
// worker an answer has written it, or until ctx ends. A Close after Wait
// therefore never cuts a worker off before it hears drained.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.queue.Drained():
	case <-ctx.Done():
		return ctx.Err()
	}
	c.answering.Lock()
	c.answering.Unlock()
	return nil
}

// Store returns the live columnar store (nil without StoreDir) for an
// in-process query API; the coordinator keeps ownership.
func (c *Coordinator) Store() *colstore.Store { return c.ledger.Store() }

// Finalize commits a final checkpoint and derives the crawl dataset by
// the ledger's one rule (store, else live fold, else shard merge). All
// three deduplicate (site, pageURL) and canonicalize every ordering, so
// the result is byte-identical no matter how many workers streamed the
// pages or in what interleaving. Finalize ends the ledger's append
// phase, so a page still streaming from a stale attempt is refused (its
// session drops) instead of changing the returned dataset. meta must be
// the identity the crawl config implies; it is checked, not used.
func (c *Coordinator) Finalize(meta analysis.DatasetMeta) (*analysis.Dataset, analysis.MergeStats, error) {
	if meta != c.meta() {
		return nil, analysis.MergeStats{}, fmt.Errorf("fabric: Finalize for dataset %+v, but the crawl is %+v", meta, c.meta())
	}
	if err := c.commit(); err != nil {
		return nil, analysis.MergeStats{}, err
	}
	return c.ledger.Finalize()
}

// Close stops the coordinator: the listener closes, every worker
// session drops, a final checkpoint is committed, and the ledger is
// flushed and closed. Safe to call more than once.
func (c *Coordinator) Close() error {
	if !c.shutdown() {
		return nil
	}
	err := c.commit()
	if lErr := c.ledger.Close(); lErr != nil && err == nil {
		err = lErr
	}
	return err
}

// shutdown stops serving — listener, sessions, their Lease calls — and
// leaves the ledger untouched. false means it already ran.
func (c *Coordinator) shutdown() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	for conn := range c.conns {
		conn.Close() // unblocks the session's read
	}
	c.mu.Unlock()
	c.cancel()
	c.ln.Close()
	c.wg.Wait()
	return true
}

// acceptLoop accepts worker connections until the listener closes.
func (c *Coordinator) acceptLoop(ctx context.Context) {
	defer c.wg.Done()
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				c.logf("fabric: accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go c.session(ctx, nc)
	}
}

// track registers a live session conn; false means the coordinator is
// already closing and the conn must not be served.
func (c *Coordinator) track(conn *wsproto.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Coordinator) untrack(conn *wsproto.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// session serves one worker connection: handshake, hello/welcome, then
// the lease/heartbeat/page/settle loop until the conn drops, the idle
// deadline fires, or the queue drains.
func (c *Coordinator) session(ctx context.Context, nc net.Conn) {
	defer c.wg.Done()
	conn, _, err := wsproto.Accept(nc, nil)
	if err != nil {
		return
	}
	if !c.track(conn) {
		conn.Close()
		return
	}
	defer c.untrack(conn)
	defer conn.Close()

	// Per-read idle deadline: a worker that heartbeats at ttl/3 or is
	// being kept alive with wait frames refreshes it every message; a
	// silently dead peer is garbage-collected within 2×TTL, so killed
	// workers never leak session goroutines.
	idle := 2 * c.cfg.LeaseTTL
	if idle < time.Second {
		idle = time.Second
	}

	dec, err := readFrame(conn, idle)
	if err != nil {
		return
	}
	hello, ok := dec.Msg.(*wire.Hello)
	if !ok {
		c.logf("fabric: session opened with %q, want hello", dec.Type)
		return
	}
	if writeFrame(conn, &wire.Welcome{Crawl: c.cfg.Crawl, LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds()}) != nil {
		return
	}
	obs.FabricWorkers.Add(1)
	defer obs.FabricWorkers.Add(-1)
	c.logf("fabric: worker %s connected", hello.Worker)

	held := map[string]*dispatch.Lease{}
	grantedAt := map[string]time.Time{}
	defer func() {
		// A dropped session releases its leases immediately (without
		// consuming an attempt) instead of waiting out the TTL: the
		// worker is gone, and on reconnect its heartbeats for the old
		// lease are answered invalid, so it abandons the batch.
		for _, l := range held {
			l.Release()
		}
	}()

	for {
		dec, err := readFrame(conn, idle)
		if err != nil {
			return
		}
		c.answering.RLock()
		ok := c.serve(ctx, conn, hello.Worker, dec, held, grantedAt)
		c.answering.RUnlock()
		if !ok {
			return
		}
	}
}

// serve acts on one worker frame and writes its answer, if it has one.
// false ends the session.
func (c *Coordinator) serve(ctx context.Context, conn *wsproto.Conn, worker string, dec wire.Decoded, held map[string]*dispatch.Lease, grantedAt map[string]time.Time) bool {
	switch m := dec.Msg.(type) {
	case nil: // control frame
		if dec.Type != wire.TypeLease {
			c.logf("fabric: worker %s sent unexpected %q", worker, dec.Type)
			return false
		}
		return c.grant(ctx, conn, worker, held, grantedAt)
	case *wire.Heartbeat:
		obs.FabricHeartbeats.Inc()
		l := held[m.Batch]
		valid := l != nil && l.Heartbeat()
		if !valid {
			delete(held, m.Batch)
			delete(grantedAt, m.Batch)
		}
		return writeFrame(conn, &wire.HeartbeatAck{Batch: m.Batch, Valid: valid}) == nil
	case *wire.Page:
		// Append even when the lease was already reclaimed: a stale
		// attempt streams the same bytes a live one does (per-site
		// seeding), and re-crawled pages deduplicate, so the append is
		// harmless and refusing it would buy nothing. A line that is not a
		// page record, or one arriving after Finalize, never reaches the
		// spool: the session drops and its leases go back to the queue.
		if err := c.ledger.AppendLine(m.Site, m.Line); err != nil {
			c.logf("fabric: page for batch %s from %s rejected: %v", m.Batch, worker, err)
			return false
		}
		obs.FabricPagesStreamed.Inc()
		return true
	case *wire.Complete:
		// TCP ordering means every page frame of this batch was appended
		// to the ledger before this settle; the commit below makes them
		// durable before the batch is vouched for.
		l := held[m.Batch]
		delete(held, m.Batch)
		if l != nil && l.Complete() {
			c.mu.Lock()
			for dom, msg := range m.FailedSites {
				c.failedSites[dom] = msg
			}
			c.mu.Unlock()
			obs.FabricBatchesDone.Inc()
			if t0, ok := grantedAt[m.Batch]; ok {
				obs.FabricBatchRTT.ObserveSince(t0)
			}
			p := c.queue.Progress()
			c.logf("fabric: batch %s complete (%d pages) from %s [%d/%d done]",
				m.Batch, m.Pages, worker, p.Done, p.Total)
			if err := c.commit(); err != nil {
				c.logf("fabric: checkpoint: %v", err)
			}
		} else {
			c.logf("fabric: stale complete for batch %s from %s ignored", m.Batch, worker)
		}
		delete(grantedAt, m.Batch)
	case *wire.Fail:
		l := held[m.Batch]
		delete(held, m.Batch)
		delete(grantedAt, m.Batch)
		if l != nil && l.Fail(errors.New(m.Err)) {
			c.logf("fabric: batch %s failed on %s: %s", m.Batch, worker, m.Err)
			if err := c.commit(); err != nil {
				c.logf("fabric: checkpoint: %v", err)
			}
		}
	default:
		c.logf("fabric: worker %s sent unexpected %q", worker, dec.Type)
		return false
	}
	// A settle that leaves the queue drained is answered drained at once,
	// while Wait is still held off: the worker hears it before Close.
	return !c.drained() || writeControl(conn, wire.TypeDrained) == nil
}

// grant answers one lease request. It blocks in the queue's Lease,
// sending a wait keepalive every worker heartbeat period, until a batch
// is granted (true) or the queue drains or the coordinator closes
// (false: the session ends).
func (c *Coordinator) grant(ctx context.Context, conn *wsproto.Conn, worker string, held map[string]*dispatch.Lease, grantedAt map[string]time.Time) bool {
	for {
		lctx, cancel := context.WithTimeout(ctx, heartbeatPeriod(c.cfg.LeaseTTL))
		l, ok := c.queue.Lease(lctx)
		cancel()
		switch {
		case ok:
			b := c.batches[l.Site.Domain]
			if writeFrame(conn, &wire.Grant{Batch: b, Attempt: l.Attempt}) != nil {
				l.Release()
				return false
			}
			held[b.ID] = l
			grantedAt[b.ID] = time.Now()
			c.logf("fabric: batch %s (attempt %d, %d sites) -> %s", b.ID, l.Attempt, len(b.Sites), worker)
			return true
		case ctx.Err() != nil:
			return false
		case c.drained():
			_ = writeControl(conn, wire.TypeDrained)
			return false
		case writeControl(conn, wire.TypeWait) != nil:
			return false
		}
	}
}

// drained reports whether every batch is settled.
func (c *Coordinator) drained() bool {
	select {
	case <-c.queue.Drained():
		return true
	default:
		return false
	}
}

// commit checkpoints batch-level progress. Called after every settled
// batch and on Close, so a killed coordinator is at worst one batch
// stale — and re-running that batch produces identical spool bytes
// anyway.
func (c *Coordinator) commit() error {
	return c.ledger.Commit(func() ([]dispatch.JobRecord, map[string]string) {
		return c.queue.ExportJobs(), c.FailedSites()
	})
}

func (c *Coordinator) logf(format string, args ...any) { c.cfg.Logf(format, args...) }

// readFrame reads one protocol frame under a fresh idle deadline.
func readFrame(conn *wsproto.Conn, idle time.Duration) (wire.Decoded, error) {
	_ = conn.SetReadDeadline(time.Now().Add(idle))
	_, data, err := conn.ReadMessage()
	if err != nil {
		return wire.Decoded{}, err
	}
	return wire.Decode(data)
}

// writeFrame encodes and sends one message frame.
func writeFrame(conn *wsproto.Conn, m wire.Message) error {
	data, err := wire.Encode(m)
	if err != nil {
		return err
	}
	return conn.WriteMessage(wsproto.OpText, data)
}

// writeControl sends one payload-free frame (lease, wait, drained).
func writeControl(conn *wsproto.Conn, typ string) error {
	data, err := wire.EncodeControl(typ)
	if err != nil {
		return err
	}
	return conn.WriteMessage(wsproto.OpText, data)
}
