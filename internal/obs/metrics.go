package obs

// Well-known metric names of the crawl pipeline. The scheme is
// "<subsystem>.<what>"; stage histograms share the "stage." prefix so
// the reporter can render the pipeline in order. DESIGN.md §8 is the
// authoritative catalogue.
const (
	// Crawler attempt-level counters (mirror crawler.Stats).
	MPages      = "crawl.pages"
	MPageErrors = "crawl.page_errors"
	MSites      = "crawl.sites"
	MSiteErrors = "crawl.site_errors"
	MSitePanics = "crawl.site_panics"

	// Site-queue depth gauges, registered as function gauges by
	// internal/dispatch's queue, which feeds every crawl (a local one's
	// workers and a fabric coordinator's grants alike).
	MQueueTotal    = "queue.total"
	MQueuePending  = "queue.pending"
	MQueueLeased   = "queue.leased"
	MQueueDone     = "queue.done"
	MQueueFailed   = "queue.failed"
	MQueueRetries  = "queue.retries"
	MQueueRequeues = "queue.requeues"

	// Durability layer.
	MCheckpointWrites = "checkpoint.writes"
	MMergePages       = "merge.pages"
	MMergeDuplicates  = "merge.duplicates"

	// Browser-side traffic counters.
	MBrowserRequests = "browser.requests"
	MBrowserBlocked  = "browser.requests_blocked"
	MSocketsOpened   = "browser.sockets_opened"
	MSocketsBlocked  = "browser.sockets_blocked"

	// Server-side traffic counters.
	MServerRequests   = "webserver.http_requests"
	MServerHandshakes = "webserver.ws_handshakes"
	MServerMessages   = "webserver.ws_messages"

	// MDialRetries counts WebSocket dial attempts the browser retried
	// after a transient dial failure.
	MDialRetries = "browser.dial_retries"

	// Fault-injection transport (internal/faultnet). Conns counts every
	// wrapped connection, active gauges those not yet closed; the rest
	// count injected events by kind: delays (latency/pacing sleeps),
	// stalls (withheld first I/O), torn_writes (forced chunk splits),
	// short_writes (partial final writes), cuts (clean byte-budget
	// truncations), resets (RST-style aborts).
	MFaultConns       = "fault.conns"
	MFaultActive      = "fault.active"
	MFaultDelays      = "fault.delays"
	MFaultStalls      = "fault.stalls"
	MFaultTornWrites  = "fault.torn_writes"
	MFaultShortWrites = "fault.short_writes"
	MFaultCuts        = "fault.cuts"
	MFaultResets      = "fault.resets"

	// Filter-match engine (internal/filterlist). Requests counts every
	// Group.Match. The index gauges report the reverse-index fill of
	// the most recently built Group: indexed rules, distinct token
	// buckets, and rules on the always-scanned rest path.
	MMatchRequests    = "match.requests"
	MMatchIndexRules  = "match.index_rules"
	MMatchIndexTokens = "match.index_tokens"
	MMatchIndexRest   = "match.index_rest"

	// MMatchEval times every Group.Match evaluation (tokenize excluded).
	MMatchEval = "match.eval"

	// Fabric dispatcher (internal/fabric). Workers gauges the connected
	// worker sessions on the coordinator; heartbeats counts lease
	// extensions received; batches_done counts settled batches;
	// pages_streamed counts page records ingested off the wire; batch_rtt
	// times a batch from grant to completion. Leases in flight and
	// reclaims are the coordinator queue's queue.leased and
	// queue.requeues.
	MFabricWorkers       = "fabric.workers"
	MFabricHeartbeats    = "fabric.heartbeats"
	MFabricBatchesDone   = "fabric.batches_done"
	MFabricPagesStreamed = "fabric.pages_streamed"
	MFabricBatchRTT      = "fabric.batch_rtt"

	// WebSocket serving plane (internal/webserver admission control +
	// echo/endpoint loops; OPERATIONS.md "Load testing & capacity" is
	// the reading guide). conns_active gauges WebSocket connections
	// currently being served; conns_total counts every admitted
	// connection; conns_shed counts upgrades refused 503 by the
	// MaxConns admission gate; accept_shed counts TCP connections
	// closed at the listener by the MaxAccepted gate before HTTP ever
	// saw them; tcp_active gauges TCP connections inside the accept
	// gate. messages_in/out and bytes_in/out count served WebSocket
	// traffic in both directions; handshake times the upgrade from
	// HTTP dispatch to established conn.
	MWSConnsActive = "ws.conns_active"
	MWSConnsTotal  = "ws.conns_total"
	MWSConnsShed   = "ws.conns_shed"
	MWSAcceptShed  = "ws.accept_shed"
	MWSTCPActive   = "ws.tcp_active"
	MWSMessagesIn  = "ws.messages_in"
	MWSMessagesOut = "ws.messages_out"
	MWSBytesIn     = "ws.bytes_in"
	MWSBytesOut    = "ws.bytes_out"
	MWSHandshake   = "ws.handshake"

	// Columnar dataset store (internal/colstore; OPERATIONS.md "Query
	// service" is the reading guide). pages counts records ingested
	// (post-dedup); duplicates counts records dropped because their
	// (site, pageURL) was already folded; seals counts segments sealed;
	// segments gauges sealed segments currently live across all shards;
	// bytes counts sealed segment bytes written; dir_syncs counts parent
	// directory fsyncs after atomic renames (the rename-durability
	// contract: every colstore.WriteAtomic publish); queries
	// counts query-API requests served. seal times segment encode+seal;
	// query times query-API request handling.
	MStorePages      = "store.pages"
	MStoreDuplicates = "store.duplicates"
	MStoreSeals      = "store.seals"
	MStoreSegments   = "store.segments"
	MStoreBytes      = "store.bytes"
	MStoreDirSyncs   = "store.dir_syncs"
	MStoreQueries    = "store.queries"
	MStoreSeal       = "store.seal"
	MStoreQuery      = "store.query"

	// Per-stage latency histograms, in pipeline order.
	MStageFetch      = "stage.fetch"
	MStageParse      = "stage.parse"
	MStageTree       = "stage.tree"
	MStageLabel      = "stage.label"
	MStageCheckpoint = "stage.checkpoint"
	MStageMerge      = "stage.merge"

	// Per-page phase histograms, one sample per crawled page. Where the
	// stage.* histograms time individual operations (a fetch, a
	// commit), the crawl.* histograms time the page-granular phases
	// the crawl capacity model is built on: visit is the browser's full
	// page load, record is trace→PageRecord (tree, labels and the
	// record's string copies), commit is the ledger's check of the
	// record and the store's ingest of it (fold and column encode, plus
	// any automatic seal), and page is the
	// whole visit→record→commit turnaround.
	MCrawlVisit  = "crawl.visit"
	MCrawlRecord = "crawl.record"
	MCrawlCommit = "crawl.commit"
	MCrawlPage   = "crawl.page"
)

// The pipeline's well-known metrics, pre-resolved on Default so
// instrumented packages pay no registry lookup on hot paths.
var (
	CrawlPages      = Default.Counter(MPages)
	CrawlPageErrors = Default.Counter(MPageErrors)
	CrawlSites      = Default.Counter(MSites)
	CrawlSiteErrors = Default.Counter(MSiteErrors)
	CrawlSitePanics = Default.Counter(MSitePanics)

	CheckpointWrites = Default.Counter(MCheckpointWrites)
	MergePages       = Default.Counter(MMergePages)
	MergeDuplicates  = Default.Counter(MMergeDuplicates)

	BrowserRequests = Default.Counter(MBrowserRequests)
	BrowserBlocked  = Default.Counter(MBrowserBlocked)
	SocketsOpened   = Default.Counter(MSocketsOpened)
	SocketsBlocked  = Default.Counter(MSocketsBlocked)

	ServerRequests   = Default.Counter(MServerRequests)
	ServerHandshakes = Default.Counter(MServerHandshakes)
	ServerMessages   = Default.Counter(MServerMessages)

	DialRetries = Default.Counter(MDialRetries)

	FaultConns       = Default.Counter(MFaultConns)
	FaultActive      = Default.Gauge(MFaultActive)
	FaultDelays      = Default.Counter(MFaultDelays)
	FaultStalls      = Default.Counter(MFaultStalls)
	FaultTornWrites  = Default.Counter(MFaultTornWrites)
	FaultShortWrites = Default.Counter(MFaultShortWrites)
	FaultCuts        = Default.Counter(MFaultCuts)
	FaultResets      = Default.Counter(MFaultResets)

	MatchRequests    = Default.Counter(MMatchRequests)
	MatchIndexRules  = Default.Gauge(MMatchIndexRules)
	MatchIndexTokens = Default.Gauge(MMatchIndexTokens)
	MatchIndexRest   = Default.Gauge(MMatchIndexRest)
	MatchEval        = Default.Histogram(MMatchEval)

	FabricWorkers       = Default.Gauge(MFabricWorkers)
	FabricHeartbeats    = Default.Counter(MFabricHeartbeats)
	FabricBatchesDone   = Default.Counter(MFabricBatchesDone)
	FabricPagesStreamed = Default.Counter(MFabricPagesStreamed)
	FabricBatchRTT      = Default.Histogram(MFabricBatchRTT)

	WSConnsActive = Default.Gauge(MWSConnsActive)
	WSConnsTotal  = Default.Counter(MWSConnsTotal)
	WSConnsShed   = Default.Counter(MWSConnsShed)
	WSAcceptShed  = Default.Counter(MWSAcceptShed)
	WSTCPActive   = Default.Gauge(MWSTCPActive)
	WSMessagesIn  = Default.Counter(MWSMessagesIn)
	WSMessagesOut = Default.Counter(MWSMessagesOut)
	WSBytesIn     = Default.Counter(MWSBytesIn)
	WSBytesOut    = Default.Counter(MWSBytesOut)
	WSHandshake   = Default.Histogram(MWSHandshake)

	StorePages      = Default.Counter(MStorePages)
	StoreDuplicates = Default.Counter(MStoreDuplicates)
	StoreSeals      = Default.Counter(MStoreSeals)
	StoreSegments   = Default.Gauge(MStoreSegments)
	StoreBytes      = Default.Counter(MStoreBytes)
	StoreDirSyncs   = Default.Counter(MStoreDirSyncs)
	StoreQueries    = Default.Counter(MStoreQueries)
	StoreSeal       = Default.Histogram(MStoreSeal)
	StoreQuery      = Default.Histogram(MStoreQuery)

	CrawlVisit  = Default.Histogram(MCrawlVisit)
	CrawlRecord = Default.Histogram(MCrawlRecord)
	CrawlCommit = Default.Histogram(MCrawlCommit)
	CrawlPage   = Default.Histogram(MCrawlPage)

	StageFetch      = Default.Histogram(MStageFetch)
	StageParse      = Default.Histogram(MStageParse)
	StageTree       = Default.Histogram(MStageTree)
	StageLabel      = Default.Histogram(MStageLabel)
	StageCheckpoint = Default.Histogram(MStageCheckpoint)
	StageMerge      = Default.Histogram(MStageMerge)
)
