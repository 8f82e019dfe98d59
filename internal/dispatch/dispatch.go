// Package dispatch is the durable crawl orchestrator: the layer that
// turns the one-shot in-memory crawler into the multi-day,
// crash-surviving measurement infrastructure the paper's §3.3 crawls
// (4 passes over ~100K sites) actually require.
//
// It combines four mechanisms:
//
//   - a job queue with lease-based claiming: a worker leases a site,
//     heartbeats while crawling it, and the site is re-queued if the
//     lease TTL elapses (dead or wedged worker);
//   - retries with exponential backoff + seeded jitter up to an attempt
//     budget, with errors classified retryable vs fatal;
//   - checkpointing to an on-disk state file written atomically
//     (temp file + rename), so -resume continues an interrupted crawl
//     without re-visiting completed sites;
//   - sharded spooling: every crawled page is appended to one of N
//     JSONL spool files as it arrives, and a streaming merge folds the
//     shards into an analysis.Dataset without holding all pages in
//     memory.
//
// Determinism: browsers are built per site (crawler.SiteSeed), so a
// site's records are a pure function of (seed, site) — independent of
// worker assignment, retry count, and resume boundaries. Two fault-free
// runs produce byte-identical merged datasets, and a crawl killed
// mid-run converges, after resume, to exactly the dataset of an
// uninterrupted run.
//
// Concurrency contract: Queue, Lease, and Spooler are safe for
// concurrent use by any number of workers; Run owns the checkpoint
// writer and serializes snapshots internally, so callers never
// coordinate around dispatch state themselves. Durability contract:
// a page is acknowledged only after its spool line is flushed to the
// OS, checkpoints are atomic (temp file + rename) and therefore at
// worst one generation stale, and nothing in the package holds crawl
// results only in memory past those two sinks.
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
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
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
	// WaitBetweenPages throttles page visits.
	WaitBetweenPages time.Duration
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
	// backoff doubling to 5s, half-delay jitter).
	Retry RetryPolicy
	// LeaseTTL bounds how long a site may go without a heartbeat
	// (default 30s). Heartbeats are sent per crawled page.
	LeaseTTL time.Duration

	// Batch is the spool group-commit policy. The zero value flushes
	// every record (seed behavior); see BatchPolicy.
	Batch BatchPolicy

	// Store, when set, ingests every spooled page record into the
	// columnar store as it arrives and derives the final dataset from it
	// instead of the merge/fold paths. Segments seal at the checkpoint
	// group-commit boundary (after the spool flush, before the
	// checkpoint is published), so a checkpoint never marks a site done
	// whose pages are not in a durable segment. Open the store with
	// Resume matching this config's Resume so its replayed segments and
	// the spool agree.
	Store *colstore.Store

	// OnPage, when set, observes every page after its record has been
	// spooled (progress reporting, fault-injection tests).
	OnPage func(site crawler.Site, pageURL string)
	// OnSiteDone, when set, observes every settled site attempt.
	OnSiteDone func(site crawler.Site, pages int, err error)

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

// Run executes the orchestrated crawl: restore checkpoint (on resume),
// lease sites to workers, spool pages, checkpoint progress, and merge
// the spool shards into the final dataset. On cancellation it writes a
// final checkpoint and returns ctx.Err(); a later Resume run continues
// where it stopped.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.NewBrowser == nil {
		return nil, fmt.Errorf("dispatch: Config.NewBrowser is required")
	}
	if cfg.Recorder == nil {
		return nil, fmt.Errorf("dispatch: Config.Recorder is required")
	}
	if cfg.SpoolDir == "" || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("dispatch: SpoolDir and CheckpointPath are required")
	}
	if cfg.NumShards <= 0 {
		cfg.NumShards = DefaultShards
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

	queue := NewQueue(cfg.Sites, QueueConfig{
		LeaseTTL: cfg.LeaseTTL,
		Retry:    cfg.Retry,
		Seed:     cfg.Seed,
		Now:      cfg.now,
	})

	res := &Result{}
	resumed := false
	var cp *Checkpoint
	if cfg.Resume {
		loaded, err := LoadCheckpoint(cfg.CheckpointPath)
		switch {
		case err == nil:
			if cerr := loaded.Compatible(cfg.CheckpointPath, cfg.Name, cfg.Seed, cfg.NumShards, cfg.PagesPerSite, len(cfg.Sites)); cerr != nil {
				return nil, cerr
			}
			queue.RestoreJobs(loaded.Jobs())
			res.ResumedDone = len(loaded.Done)
			resumed = true
			cp = loaded
		case isNotExist(err):
			// Nothing to resume; run from scratch.
		default:
			return nil, err
		}
	}

	spool, err := OpenSpoolBatch(cfg.SpoolDir, cfg.NumShards, resumed, cfg.Batch)
	if err != nil {
		return nil, err
	}
	defer spool.Close()
	if cp != nil {
		// The checkpoint promises its Done sites' pages are in the
		// spool; verify before skipping a single site, or a resumed
		// crawl against the wrong/empty spool would silently produce a
		// partial dataset.
		if err := spool.VerifyMinSizes(cp.ShardBytes); err != nil {
			return nil, &CheckpointError{Path: cfg.CheckpointPath, Version: cp.Version, Reason: err.Error(), Hint: hintStartFresh}
		}
	}

	o := &orchestrator{cfg: cfg, queue: queue, spool: spool}
	if cfg.Store == nil && !resumed {
		// A fresh run sees every record as it is spooled, so it folds them
		// into the dataset live and skips the decode pass over the shards
		// at the end. A resumed run cannot: the shards already hold records
		// that never pass through this process, so it merges them instead.
		// The output is identical either way — folding applies the same
		// aggregation and deduplication as the merge, and finalize imposes
		// the canonical order.
		o.folder = analysis.NewFolder(cfg.Meta)
	}
	stats, crawlErr := crawler.CrawlSource(ctx, o, crawler.Config{
		Workers:          cfg.Workers,
		PagesPerSite:     cfg.PagesPerSite,
		Seed:             cfg.Seed,
		WaitBetweenPages: cfg.WaitBetweenPages,
		SiteBrowser:      o.browserFor,
		OnPage:           o.onPage,
	})
	res.Stats = stats

	// Always leave a fresh checkpoint behind, even (especially) when
	// cancelled: that is what a later -resume picks up.
	if cpErr := o.writeCheckpoint(); cpErr != nil && crawlErr == nil {
		crawlErr = cpErr
	}
	if sErr := o.spoolErr(); sErr != nil && crawlErr == nil {
		crawlErr = sErr
	}
	res.Progress = queue.Progress()
	_, res.FailedSites, _ = queue.Snapshot()
	if crawlErr != nil {
		return res, crawlErr
	}

	// Flush any group-commit tail so the shards are complete on disk
	// whichever path derives the dataset: the spool is the merge oracle's
	// input on the store path, the durable resume source on the fold
	// path, and about to be read back on the merge path.
	if err := spool.Flush(); err != nil {
		return res, err
	}

	if cfg.Store != nil {
		// The store folded every record at ingest (this run's pages
		// live, prior runs' via sealed-segment replay at open), so the
		// dataset comes straight from it; the final writeCheckpoint
		// above already sealed the tail.
		res.Dataset, res.Merge = cfg.Store.Finalize()
		return res, nil
	}

	if o.folder != nil {
		res.Dataset, res.Merge = o.folder.Finalize()
		res.Merge.Shards = spool.NumShards()
		return res, nil
	}

	// A resumed run merges the shards. After the flush every appended
	// byte is durable, so the shard sizes are exactly the extent a
	// checkpoint would vouch for — merge with them as the floor, turning
	// any torn tail into the hard error it is at this point (crash
	// remnants were already repaired at open).
	sizes, err := spool.ShardSizes()
	if err != nil {
		return res, err
	}
	ds, mstats, err := analysis.MergeShardsOpts(cfg.Meta, spool.Paths(), analysis.MergeOptions{MinShardBytes: sizes})
	if err != nil {
		return res, err
	}
	res.Dataset = ds
	res.Merge = mstats
	return res, nil
}

// orchestrator implements crawler.Source over the queue and owns the
// spool + checkpoint plumbing.
type orchestrator struct {
	cfg    Config
	queue  *Queue
	spool  *Spooler
	folder *analysis.Folder // non-nil only on fresh runs without a store

	mu          sync.Mutex
	active      map[string]*Lease
	completions int
	spoolFailed error

	cpMu sync.Mutex
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
	if o.cfg.OnSiteDone != nil {
		o.cfg.OnSiteDone(site, pages, err)
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

// onPage records, spools, and heartbeats one crawled page.
func (o *orchestrator) onPage(site crawler.Site, pageURL string, res *browser.PageResult) {
	recordSpan := obs.StartSpan(obs.CrawlRecord)
	rec, err := o.cfg.Recorder.RecordPage(site, pageURL, res)
	if err != nil {
		return // unparseable page: drop it
	}
	recordSpan.End()
	commitSpan := obs.StartSpan(obs.CrawlCommit)
	if err := o.spool.Append(rec); err != nil {
		o.mu.Lock()
		if o.spoolFailed == nil {
			o.spoolFailed = err
		}
		o.mu.Unlock()
		return
	}
	commitSpan.End()
	if o.folder != nil {
		o.folder.Fold(rec)
	}
	if o.cfg.Store != nil {
		// Ingest after the spool append: the spool stays the superset
		// the differential oracle merges, and a record the store sealed
		// is always recoverable from the spool too.
		if _, err := o.cfg.Store.Ingest(rec); err != nil {
			o.mu.Lock()
			if o.spoolFailed == nil {
				o.spoolFailed = err
			}
			o.mu.Unlock()
			return
		}
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

// maybeCheckpoint writes the checkpoint every CheckpointEvery settled
// sites.
func (o *orchestrator) maybeCheckpoint() {
	o.mu.Lock()
	o.completions++
	due := o.completions%o.cfg.CheckpointEvery == 0
	o.mu.Unlock()
	if due {
		_ = o.writeCheckpoint() // next periodic write or the final one retries
	}
}

// writeCheckpoint snapshots the queue into the checkpoint file.
func (o *orchestrator) writeCheckpoint() error {
	o.cpMu.Lock()
	defer o.cpMu.Unlock()
	span := obs.StartSpan(obs.StageCheckpoint)
	defer func() {
		span.End()
		obs.CheckpointWrites.Inc()
	}()
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Name:         o.cfg.Name,
		Seed:         o.cfg.Seed,
		NumShards:    o.cfg.NumShards,
		PagesPerSite: o.cfg.PagesPerSite,
		TotalSites:   len(o.cfg.Sites),
	}
	cp.SetJobs(o.queue.ExportJobs())
	// Record the durable spool extent alongside the progress it vouches
	// for; resume refuses a spool smaller than this. The flush makes
	// any group-commit tail durable first — a checkpoint must never
	// mark a site done while its pages sit in a write buffer.
	if err := o.spool.Flush(); err != nil {
		return err
	}
	if o.cfg.Store != nil {
		// Seal at the same boundary: every site this checkpoint marks
		// done must be replayable from sealed segments on resume.
		if err := o.cfg.Store.Seal(); err != nil {
			return err
		}
	}
	if sizes, err := o.spool.ShardSizes(); err == nil {
		cp.ShardBytes = sizes
	}
	return cp.WriteAtomic(o.cfg.CheckpointPath)
}

// spoolErr returns the first spool append failure, if any.
func (o *orchestrator) spoolErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spoolFailed
}

// isNotExist tolerates a missing checkpoint on resume.
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
