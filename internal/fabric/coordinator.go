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
	// BatchSize is the most sites one grant leases (default 16).
	BatchSize int
	// LeaseTTL bounds how long a grant may go without a heartbeat
	// before its sites' leases are reclaimed (default 30s).
	LeaseTTL time.Duration
	// Retry is the per-site retry policy (zero value = defaults), the
	// one dispatch.Run applies to a local crawl.
	Retry dispatch.RetryPolicy
	// StoreDir is the crawl's one durable state: the columnar store every
	// streamed page record and every settled attempt's outcome row is
	// appended to, sealed at each commit, so the crawl is queryable
	// (cmd/wsquery, or Store for the in-process API) while it runs;
	// Finalize derives the dataset from it. Its identity is StoreConfig's
	// of Crawl. Required.
	StoreDir string
	// Resume replays StoreDir (when present) and skips completed sites
	// instead of starting from scratch.
	Resume bool
	// Logf, when set, receives progress lines (grants, completions). The
	// e2e harness reads them off stderr to time its kills; nil means
	// silent.
	Logf func(format string, args ...any)
}

// Coordinator runs dispatch.Run's grant loop over the wire: it leases a
// crawl's sites to a worker fleet as dispatch.Grants of up to BatchSize
// sites, appends their page records to the crawl's dispatch.Ledger, and
// settles each grant through it. Leasing, heartbeats, TTL reclaim, retry
// budgets and settling are dispatch's, over the same sites dispatch.Run
// queues. The queue is the coordinator's only clock: a waiting session
// blocks in its Grant, and Wait in its Drained. What is the
// coordinator's own is the wire session loop; everything durable, and
// when to commit it, is the ledger's (DESIGN.md §7): a killed coordinator
// resumes at most max(8, N/128) − 1 settled sites stale, as a local crawl
// does, and re-crawls them into identical records.
type Coordinator struct {
	cfg    CoordinatorConfig
	queue  *dispatch.Queue
	ledger *dispatch.Ledger
	ln     net.Listener

	mu     sync.Mutex
	conns  map[*wsproto.Conn]struct{}
	closed bool

	resumedDone int

	// answering is read-held by a session from reading a frame until its
	// answer is written. Wait takes it once the queue has drained, so it
	// returns only after every answer then owed — drained, for a lease or
	// a settle — is out. A session may block while holding it (in Grant),
	// but never on Wait: once the queue has drained, Grant returns at once.
	answering sync.RWMutex
	cancel    context.CancelFunc // ends every session's Grant
	wg        sync.WaitGroup
}

// StartCoordinator queues the crawl's sites, opens its ledger (rebuilding
// the queue from a resumed store), and starts serving workers on addr
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

	store := StoreConfig(cfg.Crawl, cfg.StoreDir, cfg.Resume)
	store.TotalSites = len(cfg.Sites)
	c := &Coordinator{cfg: cfg, conns: map[*wsproto.Conn]struct{}{}}
	c.queue = dispatch.NewQueue(cfg.Sites, dispatch.QueueConfig{
		LeaseTTL: cfg.LeaseTTL,
		Retry:    cfg.Retry,
		Seed:     store.Seed,
	})
	ledger, err := dispatch.OpenLedger(store)
	if err != nil {
		return nil, err
	}
	c.ledger = ledger
	c.resumedDone = ledger.Restore(c.queue)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ledger.Close()
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	c.ln = ln

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go c.acceptLoop(ctx)
	c.logf("fabric: coordinator on %s: %d sites, up to %d per grant (%d resumed done)",
		ln.Addr(), len(cfg.Sites), cfg.BatchSize, c.resumedDone)
	return c, nil
}

// StoreConfig is the one mapping from a crawl's config to the store it
// pins, in either role: a local crawl (core's page plane) and a
// coordinator of the same crawl open the same identity, so either
// resumes the other's store. The identity is the dataset's name, era and
// crawl index, the per-crawl seed the page plane crawls with
// (crawler.CrawlSeed), the page budget and the fault profile and seed.
// The browser version and the roster size are not in it: the crawl's
// browser has no extension installed, so its version moves no dataset
// byte, and the driver fills TotalSites from the site list it queues.
func StoreConfig(c wire.CrawlConfig, dir string, resume bool) colstore.Config {
	return colstore.Config{
		Dir:          dir,
		Meta:         analysis.DatasetMeta{Name: c.Name, Era: c.Era, CrawlIndex: c.CrawlIndex},
		Seed:         crawler.CrawlSeed(c.Seed, c.CrawlIndex),
		PagesPerSite: c.PagesPerSite,
		FaultProfile: c.FaultProfile,
		FaultSeed:    c.FaultSeed,
		Resume:       resume,
	}
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// URL returns the ws:// URL workers dial.
func (c *Coordinator) URL() string { return fmt.Sprintf("ws://%s/fabric", c.ln.Addr()) }

// Progress snapshots the site queue.
func (c *Coordinator) Progress() dispatch.Progress { return c.queue.Progress() }

// ResumedDone is how many sites the resumed store's rows marked done.
func (c *Coordinator) ResumedDone() int { return c.resumedDone }

// FailedSites maps the sites that spent their attempt budget to their
// last error, read off the queue as dispatch.Run reads its own.
func (c *Coordinator) FailedSites() map[string]string { return c.queue.FailedSites() }

// Wait blocks until every site is settled and each session that owed a
// worker an answer has written it, or until ctx ends. A Close after Wait
// therefore never cuts a worker off before it hears drained: Close tells
// the sessions still waiting on a frame (shutdown).
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

// Store returns the live columnar store for an in-process query API;
// the coordinator keeps ownership.
func (c *Coordinator) Store() *colstore.Store { return c.ledger.Store() }

// Finalize derives the crawl dataset by the ledger's one rule: finalize
// the store's fold. The fold deduplicates (site, pageURL) and
// canonicalizes every ordering, so the result is byte-identical no
// matter how many workers streamed the pages, in what interleaving, or
// across how many resumes. Finalize ends the ledger's append phase, so a
// page still streaming from a stale attempt is refused (its session
// drops) instead of changing the returned dataset; Close commits. meta
// must be the identity the crawl config implies; it is checked, not
// used.
func (c *Coordinator) Finalize(meta analysis.DatasetMeta) (*analysis.Dataset, analysis.MergeStats, error) {
	if want := c.Store().Meta(); meta != want {
		return nil, analysis.MergeStats{}, fmt.Errorf("fabric: Finalize for dataset %+v, but the crawl is %+v", meta, want)
	}
	ds, stats := c.ledger.Finalize()
	return ds, stats, nil
}

// Close stops the coordinator: the listener closes, every worker
// session drops, and the ledger commits what has settled. Safe to call
// more than once.
func (c *Coordinator) Close() error {
	if !c.shutdown() {
		return nil
	}
	return c.ledger.Close()
}

// shutdown stops serving — listener, sessions, their Grant calls — and
// leaves the ledger to Close, but for tellDrained's commit. false means
// it already ran.
//
// Once the queue has drained, every open session is owed drained before
// its conn closes. Wait holds Close off only for sessions answering a
// frame they have read; a worker whose lease request is still on the
// wire when another's settle drains the queue has been read nothing
// from, and would otherwise hear only the close and redial a finished
// coordinator until its retry budget gives out.
func (c *Coordinator) shutdown() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	conns := make([]*wsproto.Conn, 0, len(c.conns))
	for conn := range c.conns {
		//lint:allow maporder each session gets its own drained and close; their order is unobservable
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	drained := c.drained()
	for _, conn := range conns {
		if drained {
			_ = conn.SetWriteDeadline(time.Now().Add(drainedWriteTimeout))
			_ = c.tellDrained(conn) // a worker already gone just misses it
		}
		conn.Close() // unblocks the session's read
	}
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
	p, err := wsproto.ReadRequest(nc)
	if err != nil {
		return
	}
	conn, err := p.Accept("")
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

	s := &session{conn: conn, worker: hello.Worker, held: map[string]*dispatch.Grant{}}
	defer func() {
		// A dropped session releases its leases immediately (without
		// consuming an attempt) instead of waiting out the TTL: the
		// worker is gone, and on reconnect its heartbeats for the old
		// grant are answered invalid, so it abandons the grant.
		for _, g := range s.held {
			g.Release()
		}
	}()

	for {
		dec, err := readFrame(conn, idle)
		if err != nil {
			return
		}
		c.answering.RLock()
		ok := c.serve(ctx, s, dec)
		c.answering.RUnlock()
		if !ok {
			return
		}
	}
}

// session is one worker connection's state: the grants it holds.
type session struct {
	conn   *wsproto.Conn
	worker string
	held   map[string]*dispatch.Grant // by grant ID
	grants int                        // grants issued so far; names the next
}

// take removes and returns the grant the worker names (nil if it holds
// none by that ID).
func (s *session) take(id string) *dispatch.Grant {
	g := s.held[id]
	delete(s.held, id)
	return g
}

// serve acts on one worker frame and writes its answer, if it has one.
// false ends the session. Settles go through the grant, which reports
// them to the ledger.
func (c *Coordinator) serve(ctx context.Context, s *session, dec wire.Decoded) bool {
	var settled int // site attempts this frame settled
	var commitErr error
	switch m := dec.Msg.(type) {
	case nil: // control frame
		if dec.Type != wire.TypeLease {
			c.logf("fabric: worker %s sent unexpected %q", s.worker, dec.Type)
			return false
		}
		return c.grant(ctx, s)
	case *wire.Heartbeat:
		obs.FabricHeartbeats.Inc()
		g := s.held[m.Batch]
		valid := g != nil && g.Heartbeat()
		if !valid {
			delete(s.held, m.Batch)
		}
		return writeFrame(s.conn, &wire.HeartbeatAck{Batch: m.Batch, Valid: valid}) == nil
	case *wire.Page:
		// Append even when the lease was already reclaimed: a stale
		// attempt streams the same bytes a live one does (per-site
		// seeding), and re-crawled pages deduplicate, so the append is
		// harmless and refusing it would buy nothing. A frame that is not a
		// page block of the frame's site, or one arriving after Finalize,
		// never reaches the store: the session drops and its leases go
		// back to the queue. m.Line aliases the read buffer; the decode
		// copies what the record keeps before the next read.
		rec, err := colstore.DecodePageBlock(m.Line)
		if err == nil {
			err = c.ledger.Append(m.Site, rec)
		}
		if err != nil {
			c.logf("fabric: page for grant %s from %s rejected: %v", m.Batch, s.worker, err)
			return false
		}
		obs.FabricPagesStreamed.Inc()
		return true
	case *wire.Complete:
		// TCP ordering means every page frame of this grant was appended
		// to the ledger before this settle; the commit it makes due makes
		// them durable before a site is vouched for. Each site settles on
		// its own: the ones the worker names failed this attempt and retry
		// under the policy, as a local crawl's failed sites do.
		g := s.take(m.Batch)
		if settled, commitErr = g.Settle(m.FailedSites, nil); settled == 0 {
			c.logf("fabric: stale complete for grant %s from %s ignored", m.Batch, s.worker)
			break
		}
		obs.FabricBatchesDone.Inc()
		obs.FabricBatchRTT.ObserveSince(g.At)
		p := c.queue.Progress()
		c.logf("fabric: grant %s complete (%d pages, %d sites failed) from %s [%d/%d sites done]",
			m.Batch, m.Pages, len(m.FailedSites), s.worker, p.Done, p.Total)
	case *wire.Fail:
		if settled, commitErr = s.take(m.Batch).Settle(nil, errors.New(m.Err)); settled > 0 {
			c.logf("fabric: grant %s failed on %s: %s", m.Batch, s.worker, m.Err)
		}
	default:
		c.logf("fabric: worker %s sent unexpected %q", s.worker, dec.Type)
		return false
	}
	if commitErr != nil {
		c.logf("fabric: commit: %v", commitErr) // the next due settle or Close retries
	}
	// A settle that leaves the queue drained is answered drained at once,
	// while Wait is still held off: the worker hears it before Close.
	return !c.drained() || c.tellDrained(s.conn) == nil
}

// grant answers one lease request. It blocks in the queue's Grant,
// sending a wait keepalive every worker heartbeat period, until up to
// BatchSize sites are granted (true) or the queue drains or the
// coordinator closes (false: the session ends).
func (c *Coordinator) grant(ctx context.Context, s *session) bool {
	for {
		lctx, cancel := context.WithTimeout(ctx, heartbeatPeriod(c.cfg.LeaseTTL))
		g, ok := c.queue.Grant(lctx, c.cfg.BatchSize, c.ledger)
		cancel()
		switch {
		case ok:
			s.grants++
			b := wire.Batch{ID: fmt.Sprintf("g%d", s.grants), Seq: s.grants}
			for _, site := range g.Sites() {
				b.Sites = append(b.Sites, wire.Site{Domain: site.Domain, Rank: site.Rank, Attempt: site.Attempt})
			}
			if writeFrame(s.conn, &wire.Grant{Batch: b}) != nil {
				g.Release()
				return false
			}
			s.held[b.ID] = g
			c.logf("fabric: grant %s (%d sites) -> %s", b.ID, len(b.Sites), s.worker)
			return true
		case ctx.Err() != nil:
			return false
		case c.drained():
			_ = c.tellDrained(s.conn)
			return false
		case writeControl(s.conn, wire.TypeWait) != nil:
			return false
		}
	}
}

// tellDrained tells a worker the queue is drained, once the ledger has
// committed every attempt settled so far. A worker that hears drained
// exits, so a coordinator killed after telling one must find no site to
// re-crawl when it resumes: no worker would come back for it. A failed
// commit is logged and the worker told anyway; Close retries it.
func (c *Coordinator) tellDrained(conn *wsproto.Conn) error {
	if err := c.ledger.Commit(); err != nil {
		c.logf("fabric: commit: %v", err)
	}
	return writeControl(conn, wire.TypeDrained)
}

// drained reports whether every site is settled.
func (c *Coordinator) drained() bool {
	p := c.queue.Progress()
	return p.Done+p.Failed == p.Total
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// drainedWriteTimeout bounds shutdown's drained write to each session,
// so a wedged peer cannot hold Close up.
const drainedWriteTimeout = time.Second

// readFrame reads one protocol frame under a fresh idle deadline. A
// page frame must arrive as a binary message and every other frame as
// text; a frame in the other kind is refused. A page's Line aliases the
// connection's read buffer, valid until the next read.
func readFrame(conn *wsproto.Conn, idle time.Duration) (wire.Decoded, error) {
	_ = conn.SetReadDeadline(time.Now().Add(idle))
	op, data, err := conn.ReadMessage()
	if err != nil {
		return wire.Decoded{}, err
	}
	dec, err := wire.Decode(data)
	if err == nil && (op == wsproto.OpBinary) != (dec.Type == wire.TypePage) {
		return wire.Decoded{}, fmt.Errorf("fabric: a %q frame arrived as a %s message", dec.Type, op)
	}
	return dec, err
}

// writeFrame encodes and sends one message frame: a page as a binary
// message, any other frame as text.
func writeFrame(conn *wsproto.Conn, m wire.Message) error {
	data, err := wire.Encode(m)
	if err != nil {
		return err
	}
	op := wsproto.OpText
	if _, ok := m.(*wire.Page); ok {
		op = wsproto.OpBinary
	}
	return conn.WriteMessage(op, data)
}

// writeControl sends one payload-free frame (lease, wait, drained).
func writeControl(conn *wsproto.Conn, typ string) error {
	data, err := wire.EncodeControl(typ)
	if err != nil {
		return err
	}
	return conn.WriteMessage(wsproto.OpText, data)
}
