// Package fabric runs dispatch's grant loop over the wire: a
// coordinator leases a crawl's sites to a fleet of worker processes, in
// grants of up to a batch size, over our own WebSocket stack
// (internal/wsproto), speaking the versioned protocol defined in
// internal/fabric/wire. dispatch.Run runs the same loop in-process.
//
// The fabric composes the repo's existing machinery rather than
// reinventing it:
//
//   - leasing, heartbeats, TTL reclaim, retry budgets and settling are
//     internal/dispatch's: a session holds dispatch.Grants from the queue
//     dispatch.Run builds over the crawl's real site list. A heartbeat
//     extends a grant's leases, a complete settles each site on its own
//     (the sites the worker reports failed retry under the one
//     RetryPolicy, exactly as a local crawl's do), and a fail fails them
//     all. A site has one outcome model on both paths;
//   - everything durable is internal/dispatch's Ledger: page records
//     stream back as page blocks (one-record colstore segment images),
//     and each decoded record goes through Ledger.Append, the ledger's
//     one entry, as a local crawl's records do — so the coordinator's
//     store holds the same records a local crawl's does, each settled site's outcome row follows its pages into that
//     store, and progress is committed by the ledger's one commit rule
//     (either role resumes the other's store, because both derive its
//     identity from the crawl config by StoreConfig); and the final
//     dataset comes from the ledger's one finalize rule;
//   - the crawl's fault profile travels in the welcome frame's
//     CrawlConfig, so workers crawl under the faults a local crawl
//     draws; workers survive coordinator restarts via seeded dial
//     retry, and a worker's link can be wrapped (WorkerConfig.WrapConn)
//     only as a test seam.
//
// Determinism contract (DESIGN.md §12): a site's records are a pure
// function of (seed, site) — and, under a fault profile, of the site's
// attempt, which its grant carries — since workers rebuild the same
// synthetic world from the Welcome frame's CrawlConfig; the dataset
// derivation canonicalizes ordering and deduplicates re-crawled pages.
// Therefore the dataset is byte-identical across worker counts,
// arbitrary message interleavings, lease reclaims (of a fault-free
// crawl: a reclaim spends an attempt, which moves a faulted site's
// schedules), and kill-and-resume of either side. The e2e tests prove
// this across real processes.
//
// Concurrency: the coordinator runs one session goroutine per worker
// connection plus an accept loop, and no timers of its own: a session
// waiting for a grant blocks in the queue's Grant, which also reclaims
// expired leases. All shared state (queue, ledger) is internally
// synchronized. Workers run the page pipeline with their own crawl
// parallelism and serialize protocol writes through the wsproto
// connection.
//
// Observability: the coordinator exports fabric.* metrics (workers,
// heartbeats, grants done, pages streamed, and a grant→complete
// round-trip histogram), and its site queue the queue.* gauges (leases
// in flight, reclaims as requeues); all instrumentation is
// observe-only.
package fabric
