package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
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

// grantPoll is how often an idle session re-polls the batch queue while
// a worker waits for a grant. Each poll also sends a wait keepalive so
// the worker's read deadline stays fresh.
const grantPoll = 100 * time.Millisecond

// hintFabricFresh is the standard remediation for an unusable
// coordinator checkpoint.
const hintFabricFresh = "delete the checkpoint and spool directory, or rerun without -resume, to start the crawl from scratch"

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
	// Store, when set, ingests every streamed page record into the
	// embedded columnar store as it arrives and seals its segments at
	// each checkpoint boundary, so the crawl is queryable (cmd/wsquery)
	// while it runs. The spool keeps the raw lines regardless: Finalize
	// still merges them, and the store-derived dataset must match that
	// merge byte for byte (the differential oracle). Open the store with
	// Resume matching this config's Resume; the caller owns Close.
	Store *colstore.Store
	// Fault, when enabled, degrades every accepted worker connection
	// with the given faultnet profile (fresh schedule per conn, keyed
	// on FaultSeed).
	Fault     faultnet.Profile
	FaultSeed int64
	// Logf, when set, receives progress lines (grants, completions,
	// reclaims). The e2e harness reads them off stderr to time its
	// kills; nil means silent.
	Logf func(format string, args ...any)
}

// Coordinator serves deterministic job batches to a worker fleet over
// the fabric protocol and ingests their page records into the crawl
// spool. Batch leasing, heartbeats, TTL reclaim, and retry budgets all
// reuse dispatch.Queue with batches as the leased unit; progress is
// checkpointed atomically after every settled batch, so a killed
// coordinator resumes without losing completed work.
type Coordinator struct {
	cfg     CoordinatorConfig
	batches map[string]wire.Batch // by batch ID
	total   int
	queue   *dispatch.Queue
	spool   *dispatch.Spooler
	ln      net.Listener

	mu          sync.Mutex
	failedSites map[string]string
	conns       map[*wsproto.Conn]struct{}
	closed      bool

	cpMu sync.Mutex // serializes checkpoint writes

	resumedDone int

	stop    chan struct{}
	drained chan struct{}
	wg      sync.WaitGroup
}

// StartCoordinator builds the batch plan, restores any checkpoint,
// opens the spool, and starts serving workers on addr (host:port;
// ":0" picks a port — see Addr).
func StartCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Crawl.Name == "" || len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs a crawl name and a site list")
	}
	if cfg.CheckpointPath == "" || cfg.SpoolDir == "" {
		return nil, fmt.Errorf("fabric: CheckpointPath and SpoolDir are required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.NumShards <= 0 {
		cfg.NumShards = dispatch.DefaultShards
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
		total:       len(batches),
		failedSites: map[string]string{},
		conns:       map[*wsproto.Conn]struct{}{},
		stop:        make(chan struct{}),
		drained:     make(chan struct{}),
	}
	c.queue = dispatch.NewQueue(pseudo, dispatch.QueueConfig{
		LeaseTTL: cfg.LeaseTTL,
		Retry:    cfg.Retry,
		Seed:     cfg.Crawl.Seed,
	})

	resumed := false
	var shardBytes []int64
	if cfg.Resume {
		cp, err := loadCheckpoint(cfg.CheckpointPath)
		switch {
		case err == nil:
			if cerr := cp.Compatible(cfg.CheckpointPath, cfg.Crawl.Name, cfg.Crawl.Seed,
				cfg.NumShards, cfg.Crawl.PagesPerSite, cfg.BatchSize, len(batches), len(cfg.Sites)); cerr != nil {
				return nil, cerr
			}
			c.queue.RestoreJobs(cp.Batches)
			for dom, msg := range cp.FailedSites {
				c.failedSites[dom] = msg
			}
			for _, rec := range cp.Batches {
				if rec.State == dispatch.JobDone {
					c.resumedDone++
				}
			}
			shardBytes = cp.ShardBytes
			resumed = true
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume; run from scratch.
		default:
			return nil, err
		}
	}

	spool, err := dispatch.OpenSpool(cfg.SpoolDir, cfg.NumShards, resumed)
	if err != nil {
		return nil, err
	}
	if resumed {
		// The checkpoint promises its completed batches' pages are in
		// the spool; verify before skipping a single batch.
		if err := spool.VerifyMinSizes(shardBytes); err != nil {
			spool.Close()
			return nil, &dispatch.CheckpointError{
				Path: cfg.CheckpointPath, Version: wire.CheckpointVersion,
				Reason: err.Error(), Hint: hintFabricFresh,
			}
		}
	}
	c.spool = spool

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		spool.Close()
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	if cfg.Fault.Enabled() {
		ln = faultnet.WrapListener(ln, cfg.Fault, cfg.FaultSeed, faultnet.ModePerConn)
	}
	c.ln = ln

	c.wg.Add(3)
	go c.acceptLoop()
	go c.reclaimLoop()
	go c.drainWatch()
	c.logf("fabric: coordinator on %s: %d sites in %d batches (%d resumed done)",
		ln.Addr(), len(cfg.Sites), len(batches), c.resumedDone)
	return c, nil
}

// loadCheckpoint reads a coordinator checkpoint. Corrupt bytes and
// unsupported versions surface as *dispatch.CheckpointError, exactly
// like the single-process checkpoint path.
func loadCheckpoint(path string) (*wire.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp wire.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, &dispatch.CheckpointError{
			Path: path, Reason: fmt.Sprintf("corrupt checkpoint: %v", err), Hint: hintFabricFresh,
		}
	}
	if cp.Version != wire.CheckpointVersion {
		return nil, &dispatch.CheckpointError{
			Path: path, Version: cp.Version,
			Reason: fmt.Sprintf("unsupported format version (this build reads v%d)", wire.CheckpointVersion),
			Hint:   hintFabricFresh,
		}
	}
	return &cp, nil
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

// Wait blocks until every batch is settled or ctx ends.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Finalize writes a final checkpoint and merges the spool shards into
// the crawl dataset. Every append was flushed when it was acknowledged,
// so the shards are fully readable even while sessions linger. Because
// the merge deduplicates (site, pageURL) and canonicalizes all
// ordering, the result is byte-identical no matter how many workers
// streamed the spool or in what interleaving.
func (c *Coordinator) Finalize(meta analysis.DatasetMeta) (*analysis.Dataset, analysis.MergeStats, error) {
	if err := c.writeCheckpoint(); err != nil {
		return nil, analysis.MergeStats{}, err
	}
	// Every AppendRaw flushed before its ack, so the current shard sizes
	// are fully durable extents: merge with them as the floor so a torn
	// tail inside acknowledged data fails hard instead of being skipped.
	sizes, err := c.spool.ShardSizes()
	if err != nil {
		return nil, analysis.MergeStats{}, err
	}
	return analysis.MergeShardsOpts(meta, c.spool.Paths(), analysis.MergeOptions{MinShardBytes: sizes})
}

// Close stops the coordinator: the listener closes, every worker
// session drops, a final checkpoint is written, and the spool is
// flushed and closed. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for conn := range c.conns {
		conn.Close() // unblocks the session's read
	}
	c.mu.Unlock()
	close(c.stop)
	err := c.ln.Close()
	c.wg.Wait()
	if cpErr := c.writeCheckpoint(); cpErr != nil && err == nil {
		err = cpErr
	}
	if sErr := c.spool.Close(); sErr != nil && err == nil {
		err = sErr
	}
	return err
}

// acceptLoop accepts worker connections until the listener closes.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.stop:
			default:
				c.logf("fabric: accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go c.session(nc)
	}
}

// reclaimLoop ticks lease reclamation so batches leased to dead workers
// come back even when no session is polling the queue.
func (c *Coordinator) reclaimLoop() {
	defer c.wg.Done()
	period := c.cfg.LeaseTTL / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.drained:
			return
		case <-t.C:
			if n := c.queue.Reclaim(); n > 0 {
				obs.FabricReclaims.Add(int64(n))
				c.logf("fabric: reclaimed %d expired batch leases", n)
			}
			c.updateGauges()
		}
	}
}

// drainWatch closes the drained channel once every batch is terminal.
func (c *Coordinator) drainWatch() {
	defer c.wg.Done()
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			p := c.queue.Progress()
			if p.Done+p.Failed == p.Total {
				c.logf("fabric: crawl drained: %d batches done, %d failed", p.Done, p.Failed)
				close(c.drained)
				return
			}
		}
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
func (c *Coordinator) session(nc net.Conn) {
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
	welcome, err := wire.Encode(&wire.Welcome{
		Crawl:          c.cfg.Crawl,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
	if err != nil || conn.WriteMessage(wsproto.OpText, welcome) != nil {
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
		c.updateGauges()
	}()

	for {
		dec, err := readFrame(conn, idle)
		if err != nil {
			return
		}
		switch m := dec.Msg.(type) {
		case nil: // control frame
			if dec.Type != wire.TypeLease {
				c.logf("fabric: worker %s sent unexpected %q", hello.Worker, dec.Type)
				return
			}
			if !c.grant(conn, hello.Worker, held, grantedAt) {
				return
			}
		case *wire.Heartbeat:
			obs.FabricHeartbeats.Inc()
			l := held[m.Batch]
			valid := l != nil && l.Heartbeat()
			if !valid {
				delete(held, m.Batch)
				delete(grantedAt, m.Batch)
			}
			ack, err := wire.Encode(&wire.HeartbeatAck{Batch: m.Batch, Valid: valid})
			if err != nil || conn.WriteMessage(wsproto.OpText, ack) != nil {
				return
			}
		case *wire.Page:
			// Append even when the lease was already reclaimed: a stale
			// attempt streams the same bytes a live one does (per-site
			// seeding), and the merge deduplicates re-crawled pages, so
			// the append is harmless and refusing it would buy nothing.
			if err := c.spool.AppendRaw(m.Site, m.Line); err != nil {
				c.logf("fabric: spool append: %v", err)
				return
			}
			if c.cfg.Store != nil {
				// Re-crawled duplicates fold to nothing here exactly as
				// they dedup in the merge, keeping both sides identical.
				if _, err := c.cfg.Store.IngestRaw(m.Line); err != nil {
					c.logf("fabric: store ingest: %v", err)
					return
				}
			}
			obs.FabricPagesStreamed.Inc()
		case *wire.Complete:
			// TCP ordering means every page frame of this batch was
			// processed — and durably spooled — before this settle.
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
					m.Batch, m.Pages, hello.Worker, p.Done, p.Total)
				if err := c.writeCheckpoint(); err != nil {
					c.logf("fabric: checkpoint: %v", err)
				}
			} else {
				c.logf("fabric: stale complete for batch %s from %s ignored", m.Batch, hello.Worker)
			}
			delete(grantedAt, m.Batch)
			c.updateGauges()
		case *wire.Fail:
			l := held[m.Batch]
			delete(held, m.Batch)
			delete(grantedAt, m.Batch)
			if l != nil && l.Fail(errors.New(m.Err)) {
				c.logf("fabric: batch %s failed on %s: %s", m.Batch, hello.Worker, m.Err)
				if err := c.writeCheckpoint(); err != nil {
					c.logf("fabric: checkpoint: %v", err)
				}
			}
			c.updateGauges()
		default:
			c.logf("fabric: worker %s sent unexpected %q", hello.Worker, dec.Type)
			return
		}
	}
}

// grant serves one lease request: it polls the queue, keeping the
// worker's read deadline alive with wait keepalives, until a batch is
// granted or the queue drains. false ends the session.
func (c *Coordinator) grant(conn *wsproto.Conn, worker string, held map[string]*dispatch.Lease, grantedAt map[string]time.Time) bool {
	for {
		l, st := c.queue.TryLease()
		switch st {
		case dispatch.TryGranted:
			b := c.batches[l.Site.Domain]
			data, err := wire.Encode(&wire.Grant{Batch: b, Attempt: l.Attempt})
			if err != nil {
				l.Release()
				return false
			}
			if err := conn.WriteMessage(wsproto.OpText, data); err != nil {
				l.Release()
				return false
			}
			held[b.ID] = l
			grantedAt[b.ID] = time.Now()
			c.updateGauges()
			c.logf("fabric: batch %s (attempt %d, %d sites) -> %s", b.ID, l.Attempt, len(b.Sites), worker)
			return true
		case dispatch.TryDrained:
			if data, err := wire.EncodeControl(wire.TypeDrained); err == nil {
				_ = conn.WriteMessage(wsproto.OpText, data)
			}
			return false
		default: // TryEmpty: work in flight elsewhere; keep the worker queued
			data, err := wire.EncodeControl(wire.TypeWait)
			if err != nil || conn.WriteMessage(wsproto.OpText, data) != nil {
				return false
			}
			select {
			case <-c.stop:
				return false
			case <-c.drained:
				// The in-flight batches just settled elsewhere. Tell the
				// waiting worker right now — the coordinator is about to
				// shut down, and a worker that misses the drained frame
				// would burn its whole dial-retry budget on a dead
				// address and exit in error.
				if data, err := wire.EncodeControl(wire.TypeDrained); err == nil {
					_ = conn.WriteMessage(wsproto.OpText, data)
				}
				return false
			case <-time.After(grantPoll):
			}
		}
	}
}

// writeCheckpoint persists batch-level progress atomically. Called
// after every settled batch and on Close, so a killed coordinator is at
// worst one batch stale — and re-running that batch produces identical
// spool bytes anyway.
func (c *Coordinator) writeCheckpoint() error {
	c.cpMu.Lock()
	defer c.cpMu.Unlock()
	span := obs.StartSpan(obs.StageCheckpoint)
	defer func() {
		span.End()
		obs.CheckpointWrites.Inc()
	}()
	cp := &wire.Checkpoint{
		Version:      wire.CheckpointVersion,
		Name:         c.cfg.Crawl.Name,
		Seed:         c.cfg.Crawl.Seed,
		NumShards:    c.cfg.NumShards,
		PagesPerSite: c.cfg.Crawl.PagesPerSite,
		BatchSize:    c.cfg.BatchSize,
		TotalBatches: c.total,
		TotalSites:   len(c.cfg.Sites),
	}
	for _, rec := range c.queue.ExportJobs() {
		if rec.State == dispatch.JobPending && rec.Attempts == 0 {
			continue // a checkpoint stores only deviations from fresh
		}
		rec.Rank = 0 // batch seq is re-derived from the seed, not persisted
		cp.Batches = append(cp.Batches, rec)
	}
	cp.SortBatches()
	c.mu.Lock()
	if len(c.failedSites) > 0 {
		cp.FailedSites = make(map[string]string, len(c.failedSites))
		for dom, msg := range c.failedSites {
			cp.FailedSites[dom] = msg
		}
	}
	c.mu.Unlock()
	// Seal the store before the checkpoint publishes: every batch the
	// checkpoint records as done streamed its pages (and was ingested)
	// before the Complete frame that triggered this write, so sealing
	// here keeps the invariant that checkpoint-done batches are covered
	// by sealed segments — resume replays them instead of losing them.
	if c.cfg.Store != nil {
		if err := c.cfg.Store.Seal(); err != nil {
			return err
		}
	}
	// Record the durable spool extent alongside the progress it vouches
	// for; resume refuses a spool smaller than this.
	if sizes, err := c.spool.ShardSizes(); err == nil {
		cp.ShardBytes = sizes
	}
	return dispatch.WriteAtomic(c.cfg.CheckpointPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(cp)
	})
}

// updateGauges refreshes the fabric lease gauge from queue state.
func (c *Coordinator) updateGauges() {
	obs.FabricLeases.Set(int64(c.queue.Progress().Leased))
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
