// Package dispatch is the durable crawl orchestrator: the layer that
// turns the one-shot in-memory crawler into the multi-day,
// crash-surviving measurement infrastructure the paper's §3.3 crawls
// (4 passes over ~100K sites) actually require.
//
// It combines four mechanisms:
//
//   - a job queue with lease-based claiming: a worker leases a site,
//     heartbeats while crawling it, and the site is re-queued if the
//     lease TTL elapses (dead or wedged worker). The queue is its
//     callers' only clock: a blocked Lease wakes on the next settle or
//     deadline, and Drained closes when the last job turns terminal;
//   - retries with exponential backoff + seeded jitter up to an attempt
//     budget, with errors classified retryable vs fatal;
//   - the Ledger (ledger.go), which owns everything durable: every
//     crawled page is appended to one of N JSONL spool shards (and, with
//     StoreDir, ingested into the columnar store), progress is
//     checkpointed to a state file written atomically, and the dataset
//     is derived from the store, a live fold, or a streaming merge of
//     the shards — so -resume continues an interrupted crawl without
//     re-visiting completed sites and converges on the same bytes;
//   - Run, which wires the queue to the crawler's worker pool and decides
//     when the ledger commits.
//
// The fabric coordinator (internal/fabric) is the ledger's other caller:
// same queue with batches as the leased unit, same ledger, a wire session
// per worker blocked in Lease instead of a local worker pool.
//
// Determinism: browsers are built per site (crawler.SiteSeed), so a
// site's records are a pure function of (seed, site) — independent of
// worker assignment, retry count, and resume boundaries. Two fault-free
// runs produce byte-identical merged datasets, and a crawl killed
// mid-run converges, after resume, to exactly the dataset of an
// uninterrupted run.
//
// Concurrency contract: Queue, Lease, Spooler and Ledger are safe for
// concurrent use by any number of workers; the ledger serializes
// checkpoint generations internally, so callers never coordinate around
// dispatch state themselves. Durability contract (stated once, in
// DESIGN.md §7): a job is marked done in a checkpoint only after its
// pages were flushed to the spool and sealed into the store, checkpoints
// are atomic (temp file + rename + directory sync) and therefore at worst
// one generation stale, and nothing in the package holds crawl results
// only in memory past those sinks.
//
// Observability: the queue exports depth/retry gauges, and the
// checkpoint and spool paths record latency histograms, to the obs
// registry (queue.*, checkpoint.*, spool.*, stage.spool,
// stage.checkpoint — see DESIGN.md §8). Instrumentation is read-only
// with respect to crawl data: it never alters records, ordering, or
// the merged dataset.
package dispatch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/obs"
)

// Config parameterizes an orchestrated crawl.
type Config struct {
	// Name identifies the crawl (checkpoint identity).
	Name string
	// Meta names the merged dataset.
	Meta analysis.DatasetMeta
	// Sites is the full crawl target list, in rank order.
	Sites []crawler.Site
	// Workers is the crawl parallelism (default 8).
	Workers int
	// PagesPerSite is the per-site page budget (default 15).
	PagesPerSite int
	// Seed drives link sampling and backoff jitter.
	Seed int64
	// NewBrowser builds a browser for one site attempt. Seed it with
	// crawler.SiteSeed (not the attempt) to keep retries deterministic.
	// Required.
	NewBrowser func(site crawler.Site, attempt int) *browser.Browser
	// Recorder converts page loads into spool records. Required.
	Recorder *analysis.Recorder

	// SpoolDir receives the sharded JSONL spool files. Required.
	SpoolDir string
	// NumShards is the spool shard count (default 8).
	NumShards int
	// CheckpointPath is the crawl's durable state file. Required.
	CheckpointPath string
	// Resume loads CheckpointPath (when present) and skips completed
	// sites instead of starting from scratch.
	Resume bool
	// CheckpointEvery writes the checkpoint after this many site
	// completions (default 8). A final checkpoint is always written
	// when Run returns, including on cancellation.
	CheckpointEvery int

	// Retry is the retry policy (zero value = 3 attempts, 100ms base
	// backoff doubling to 5s, half-delay jitter). A site may go the
	// queue's default lease TTL without a heartbeat; heartbeats are sent
	// per crawled page.
	Retry RetryPolicy

	// StoreDir, when non-empty, also ingests every spooled page record
	// into a columnar store at this directory and derives the final
	// dataset from it (see LedgerConfig.StoreDir).
	StoreDir string

	// OnPage, when set, observes every page after its record has been
	// spooled (progress reporting, fault-injection tests).
	OnPage func(site crawler.Site, pageURL string)

	// now overrides the clock in tests.
	now func() time.Time
}

// Result is the outcome of an orchestrated crawl.
type Result struct {
	// Dataset is the merged measurement output (nil when the run was
	// cancelled before the merge).
	Dataset *analysis.Dataset
	// Stats aggregates the crawler's attempt-level counters.
	Stats crawler.Stats
	// Merge describes the shard merge.
	Merge analysis.MergeStats
	// Progress is the final queue state.
	Progress Progress
	// FailedSites maps permanently failed sites to their last error.
	FailedSites map[string]string
	// ResumedDone is how many sites the checkpoint already covered.
	ResumedDone int
}

// Run executes the orchestrated crawl: open the ledger (restoring the
// checkpoint on resume), lease sites to workers, append their pages,
// commit progress, and derive the final dataset. On cancellation it
// commits a final checkpoint and returns ctx.Err(); a later Resume run
// continues where it stopped.
func Run(ctx context.Context, cfg Config) (_ *Result, err error) {
	if cfg.NewBrowser == nil {
		return nil, fmt.Errorf("dispatch: Config.NewBrowser is required")
	}
	if cfg.Recorder == nil {
		return nil, fmt.Errorf("dispatch: Config.Recorder is required")
	}
	if cfg.PagesPerSite <= 0 {
		cfg.PagesPerSite = 15
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}

	ledger, err := OpenLedger(LedgerConfig{
		Crawl: Checkpoint{
			Name:         cfg.Name,
			Seed:         cfg.Seed,
			NumShards:    cfg.NumShards,
			PagesPerSite: cfg.PagesPerSite,
			TotalSites:   len(cfg.Sites),
		},
		Meta:           cfg.Meta,
		SpoolDir:       cfg.SpoolDir,
		CheckpointPath: cfg.CheckpointPath,
		StoreDir:       cfg.StoreDir,
		Resume:         cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ledger.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	queue := NewQueue(cfg.Sites, QueueConfig{
		Retry: cfg.Retry,
		Seed:  cfg.Seed,
		Now:   cfg.now,
	})
	res := &Result{}
	if cp := ledger.Resumed(); cp != nil {
		queue.RestoreJobs(cp.Jobs())
		res.ResumedDone = len(cp.Done)
	}

	o := &orchestrator{cfg: cfg, queue: queue, ledger: ledger}
	stats, crawlErr := crawler.CrawlSource(ctx, o, crawler.Config{
		Workers:      cfg.Workers,
		PagesPerSite: cfg.PagesPerSite,
		Seed:         cfg.Seed,
		SiteBrowser:  o.browserFor,
		OnPage:       o.onPage,
	})
	res.Stats = stats

	// Always leave a fresh checkpoint behind, even (especially) when
	// cancelled: that is what a later -resume picks up.
	if cpErr := o.commit(); cpErr != nil && crawlErr == nil {
		crawlErr = cpErr
	}
	if aErr := o.appendErr(); aErr != nil && crawlErr == nil {
		crawlErr = aErr
	}
	res.Progress = queue.Progress()
	res.FailedSites = map[string]string{}
	for _, rec := range queue.ExportJobs() {
		if rec.State == JobFailed {
			res.FailedSites[rec.Domain] = rec.LastErr
		}
	}
	if crawlErr != nil {
		return res, crawlErr
	}
	res.Dataset, res.Merge, err = ledger.Finalize()
	return res, err
}

// orchestrator implements crawler.Source over the queue: the lease and
// retry policy, and when the ledger commits.
type orchestrator struct {
	cfg    Config
	queue  *Queue
	ledger *Ledger

	mu           sync.Mutex
	active       map[string]*Lease
	completions  int
	appendFailed error
}

// Next leases the next site for a worker.
func (o *orchestrator) Next(ctx context.Context) (crawler.Site, bool) {
	l, ok := o.queue.Lease(ctx)
	if !ok {
		return crawler.Site{}, false
	}
	o.mu.Lock()
	if o.active == nil {
		o.active = map[string]*Lease{}
	}
	o.active[l.Site.Domain] = l
	o.mu.Unlock()
	return l.Site, true
}

// Done settles a site attempt: complete, release (cancelled), or fail
// (classified + retried by the queue).
func (o *orchestrator) Done(site crawler.Site, pages int, err error) {
	o.mu.Lock()
	l := o.active[site.Domain]
	delete(o.active, site.Domain)
	o.mu.Unlock()
	if l == nil {
		return
	}
	switch {
	case err == nil:
		if l.Complete() {
			o.maybeCheckpoint()
		}
	case released(err):
		l.Release()
	default:
		l.Fail(err)
		o.maybeCheckpoint()
	}
}

// browserFor builds the per-site browser, threading the attempt number
// through for fault-injection hooks.
func (o *orchestrator) browserFor(site crawler.Site) *browser.Browser {
	o.mu.Lock()
	attempt := 1
	if l := o.active[site.Domain]; l != nil {
		attempt = l.Attempt
	}
	o.mu.Unlock()
	return o.cfg.NewBrowser(site, attempt)
}

// onPage records, appends, and heartbeats one crawled page.
func (o *orchestrator) onPage(site crawler.Site, pageURL string, res *browser.PageResult) {
	recordSpan := obs.StartSpan(obs.CrawlRecord)
	rec, err := o.cfg.Recorder.RecordPage(site, pageURL, res)
	if err != nil {
		return // unparseable page: drop it
	}
	recordSpan.End()
	if err := o.ledger.Append(rec); err != nil {
		o.mu.Lock()
		if o.appendFailed == nil {
			o.appendFailed = err
		}
		o.mu.Unlock()
		return
	}
	o.mu.Lock()
	l := o.active[site.Domain]
	o.mu.Unlock()
	if l != nil {
		l.Heartbeat()
	}
	if o.cfg.OnPage != nil {
		o.cfg.OnPage(site, pageURL)
	}
}

// maybeCheckpoint commits every CheckpointEvery settled sites.
func (o *orchestrator) maybeCheckpoint() {
	o.mu.Lock()
	o.completions++
	due := o.completions%o.cfg.CheckpointEvery == 0
	o.mu.Unlock()
	if due {
		_ = o.commit() // next periodic commit or the final one retries
	}
}

// commit checkpoints the queue's current job states.
func (o *orchestrator) commit() error {
	return o.ledger.Commit(func() ([]JobRecord, map[string]string) {
		return o.queue.ExportJobs(), nil
	})
}

// appendErr returns the first ledger append failure, if any.
func (o *orchestrator) appendErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.appendFailed
}
