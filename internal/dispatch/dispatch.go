// Package dispatch owns a crawl's sites and its durable state: what
// turns page crawling into the crash-surviving infrastructure the
// paper's §3.3 crawls (4 passes over ~100K sites) require. Every crawl
// is one loop — lease a grant, crawl its sites, hand each page's record
// to the ledger, settle the grant — which Run drives with
// in-process worker loops (core.RunCrawl runs every local crawl through
// it, in a temporary directory when it names no location) and the
// fabric coordinator (internal/fabric) drives over the wire.
//
//   - The Queue leases sites in one claim step (a Grant: one site for
//     Run's loops, up to a batch for a fabric session); a holder
//     heartbeats while crawling and a site whose lease TTL elapses is
//     re-queued. The queue is its callers' only clock: a blocked Grant
//     wakes on the next settle or deadline, and Drained closes when the
//     last job turns terminal.
//   - Failures retry with exponential backoff and seeded jitter up to an
//     attempt budget (RetryPolicy). Grant.Settle is the one settle path,
//     so a site has one outcome model in both roles.
//   - The Ledger (ledger.go) owns everything durable: the crawl's
//     columnar store (internal/colstore). Ledger.Append, its one entry
//     for pages, ingests each page record, which the store folds and
//     encodes into its next segment;
//     Ledger.Settled appends each settled attempt's outcome row after its
//     site's pages and seals the store when a commit is due; the dataset
//     is the store's finalized fold. A resume replays the sealed segments
//     into the fold and rebuilds the queue from their rows, so -resume
//     skips completed sites and converges on the same dataset.
//
// Determinism: a GrantRunner seeds its browsers per site
// (crawler.SiteSeed), so a site's records are a pure function of (seed,
// site) — and, under a fault profile, of the site's attempt number,
// which each granted site carries — independent of worker assignment,
// grant membership and resume boundaries; fault-free runs and resumed
// ones give byte-identical datasets.
//
// Concurrency: Queue, Lease, Grant and Ledger are safe for concurrent
// use; the store serializes its seals itself.
// Durability (DESIGN.md §7): a site's outcome row follows its pages
// into the store, so a sealed segment prefix never marks a site done
// whose pages it lacks; seals are atomic (temp file + fsync + rename +
// directory sync), and one commit rule serves both roles
// (Ledger.Settled): a killed crawl is at most max(8, N/128) − 1 settled
// sites stale.
//
// Observability: the queue exports depth/retry gauges, and the ledger
// counts and times its commits (queue.*, checkpoint.writes,
// stage.checkpoint, crawl.commit — DESIGN.md §8). None of it alters
// records, ordering, or the merged dataset.
package dispatch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/crawler"
)

// A GrantRunner crawls the sites of one grant, each once, and hands every
// page to emit as the record of its site, which emit's ledger keeps.
// Each site carries its own attempt number (Grant.Sites). It returns the
// sites whose attempt failed with their errors, and ctx.Err() once ctx
// ends. A fabric worker's BatchRunner is the same contract behind the
// wire.
type GrantRunner func(ctx context.Context, sites []crawler.Site, emit func(site string, rec *analysis.PageRecord) error) (failed map[string]string, err error)

// Config parameterizes a local crawl.
type Config struct {
	// Meta names the merged dataset, and is part of the store's identity.
	Meta analysis.DatasetMeta
	// Sites is the full crawl target list, in rank order.
	Sites []crawler.Site
	// Workers is how many worker loops lease and crawl sites at once
	// (default 8).
	Workers int
	// PagesPerSite is the per-site page budget (default 15), part of the
	// store's identity.
	PagesPerSite int
	// Seed is the crawl seed, part of the store's identity; it also
	// drives backoff jitter.
	Seed int64
	// FaultProfile and FaultSeed name the faults RunGrant loads pages
	// under (empty and zero without faults), part of the store's
	// identity: dispatch only pins them.
	FaultProfile string
	FaultSeed    int64
	// RunGrant crawls each grant. It must seed its browsers per site
	// (crawler.SiteSeed) and its faults per site and attempt, never per
	// worker or grant, to keep retries deterministic. Required.
	RunGrant GrantRunner

	// StoreDir is the crawl's columnar store and its one durable state
	// (LedgerConfig.StoreDir). Required.
	StoreDir string
	// Resume replays StoreDir (when present) and skips completed sites
	// instead of starting from scratch. The ledger commits by its one
	// rule (Ledger.Settled), and a final commit is always made when Run
	// returns, including on cancellation.
	Resume bool

	// Retry is the retry policy (zero value = 3 attempts, 100ms base
	// backoff doubling to 5s, half-delay jitter). A site may go the
	// queue's default lease TTL without a heartbeat; every emitted page
	// heartbeats its grant.
	Retry RetryPolicy

	// now overrides the clock, and commitEvery the ledger's commit
	// cadence, in tests.
	now         func() time.Time
	commitEvery int
}

// Result is the outcome of a local crawl.
type Result struct {
	// Dataset is the measurement output (nil when the run was cancelled
	// before Finalize).
	Dataset *analysis.Dataset
	// Merge describes what the ledger's fold consumed.
	Merge analysis.MergeStats
	// Progress is the final queue state.
	Progress Progress
	// FailedSites maps permanently failed sites to their last error.
	FailedSites map[string]string
	// ResumedDone is how many sites the resumed store's rows marked done.
	ResumedDone int
}

// Run executes a local crawl: open the ledger (rebuilding the queue
// from the store on resume), run Workers grant loops over the queue,
// commit progress, and derive the final dataset. On cancellation it
// commits what has settled and returns ctx.Err(); a later Resume run
// continues where it stopped.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.RunGrant == nil {
		return nil, fmt.Errorf("dispatch: Config.RunGrant is required")
	}
	if cfg.PagesPerSite <= 0 {
		cfg.PagesPerSite = 15
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}

	ledger, err := OpenLedger(LedgerConfig{
		Meta:         cfg.Meta,
		Seed:         cfg.Seed,
		PagesPerSite: cfg.PagesPerSite,
		TotalSites:   len(cfg.Sites),
		FaultProfile: cfg.FaultProfile,
		FaultSeed:    cfg.FaultSeed,
		StoreDir:     cfg.StoreDir,
		Resume:       cfg.Resume,
		commitEvery:  cfg.commitEvery,
	})
	if err != nil {
		return nil, err
	}
	queue := NewQueue(cfg.Sites, QueueConfig{
		Retry: cfg.Retry,
		Seed:  cfg.Seed,
		Now:   cfg.now,
	})
	res := &Result{ResumedDone: ledger.Restore(queue)}

	crawlErr := work(ctx, cfg, queue, ledger)
	// Always commit what settled, even (especially) when cancelled: that
	// is what a later -resume picks up.
	if cErr := ledger.Close(); cErr != nil && crawlErr == nil {
		crawlErr = cErr
	}
	res.Progress = queue.Progress()
	res.FailedSites = queue.FailedSites()
	if crawlErr != nil {
		return res, crawlErr
	}
	res.Dataset, res.Merge = ledger.Finalize()
	return res, nil
}

// work runs cfg.Workers loops that each lease one site per grant, crawl
// it with cfg.RunGrant and settle it — the loop a fabric session runs
// over the wire. Every emitted page goes to the ledger and heartbeats its
// grant; a page the ledger refuses stops every loop and is the crawl's
// error.
func work(ctx context.Context, cfg Config, queue *Queue, ledger *Ledger) error {
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		wg        sync.WaitGroup
		refused   sync.Once
		appendErr error
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, ok := queue.Grant(wctx, 1, ledger)
				if !ok {
					return
				}
				failed, err := cfg.RunGrant(wctx, g.Sites(), func(site string, rec *analysis.PageRecord) error {
					if err := ledger.Append(site, rec); err != nil {
						refused.Do(func() { appendErr = err; stop() })
						return err
					}
					g.Heartbeat()
					return nil
				})
				g.Settle(failed, err) // a failed commit costs only re-crawling; a later one retries
			}
		}()
	}
	wg.Wait()
	if appendErr != nil {
		return appendErr
	}
	return ctx.Err()
}
