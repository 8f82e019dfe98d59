// Fabric wiring: adapters that run the page plane under the distributed
// dispatcher (internal/fabric). The coordinator side builds the site
// list from the same synthetic-world parameters a local crawl uses; the
// worker side rebuilds the page plane (plane.go) from the CrawlConfig the
// coordinator broadcasts, so every worker crawls an identical world and
// a site's records are identical no matter which worker — or how many
// workers — produced them (DESIGN.md §12).

package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/fabric"
	"repro/internal/fabric/wire"
	"repro/internal/webgen"
)

// FabricCrawlConfig renders a crawl spec as the wire config the
// coordinator broadcasts to workers, the fault profile included: a
// faulted crawl is one experiment in either role. A fault-free config
// carries no fault seed, since nothing reads one.
func FabricCrawlConfig(opts Options, spec CrawlSpec) wire.CrawlConfig {
	opts = withDefaults(opts)
	cfg := wire.CrawlConfig{
		Name:           spec.Name,
		Era:            spec.Era.String(),
		CrawlIndex:     spec.CrawlIndex,
		BrowserVersion: spec.BrowserVersion,
		Seed:           opts.Seed,
		NumPublishers:  opts.NumPublishers,
		PagesPerSite:   opts.PagesPerSite,
		FaultProfile:   opts.FaultProfile,
	}
	if cfg.FaultProfile != "" {
		cfg.FaultSeed = opts.FaultSeed
	}
	return cfg
}

// FabricDatasetMeta names the merged dataset of a fabric crawl; it
// matches what the local dispatch path stamps.
func FabricDatasetMeta(spec CrawlSpec) analysis.DatasetMeta {
	return analysis.DatasetMeta{Name: spec.Name, Era: spec.Era.String(), CrawlIndex: spec.CrawlIndex}
}

// FabricSites derives the crawl target list for a spec. The coordinator
// only needs the publisher roster — it never serves or crawls the world
// itself; workers rebuild the full world from the same seed.
func FabricSites(opts Options, spec CrawlSpec) []crawler.Site {
	return siteRoster(newWorld(withDefaults(opts), spec))
}

// FabricRunner executes grants on a worker: it owns the page
// plane rebuilt from the coordinator's crawl config — the same plane,
// with the same per-site seeded browsers and the same fault schedules,
// that RunCrawl runs locally.
type FabricRunner struct {
	plane *pagePlane
}

// blockBuffers pools the buffers RunBatch builds page blocks in: a block
// is emitted synchronously and its buffer reused once emit returns, one
// buffer per crawl worker in flight.
var blockBuffers = sync.Pool{New: func() any { return new([]byte) }}

// NewFabricRunner rebuilds the measurement stack from a coordinator's
// crawl config.
func NewFabricRunner(cfg wire.CrawlConfig, workers int) (*FabricRunner, error) {
	era, err := webgen.ParseEra(cfg.Era)
	if err != nil {
		return nil, fmt.Errorf("core: fabric crawl config: %w", err)
	}
	plane, err := newPagePlane(Options{
		Seed:          cfg.Seed,
		NumPublishers: cfg.NumPublishers,
		Workers:       workers,
		PagesPerSite:  cfg.PagesPerSite,
		FaultProfile:  cfg.FaultProfile,
		FaultSeed:     cfg.FaultSeed,
	}, CrawlSpec{
		Name:           cfg.Name,
		Era:            era,
		CrawlIndex:     cfg.CrawlIndex,
		BrowserVersion: cfg.BrowserVersion,
	})
	if err != nil {
		return nil, err
	}
	return &FabricRunner{plane: plane}, nil
}

// Close shuts the runner's in-process web server down.
func (r *FabricRunner) Close() error {
	r.plane.Close()
	return nil
}

// RunBatch crawls every site of a grant once, streaming each page record
// as its page block (colstore.AppendPageBlock): the plane's runGrant, as
// a local crawl's worker loops run it. Browsers are seeded per site
// (crawler.SiteSeed) and faults per site and attempt, so the blocks are
// independent of grant membership, worker identity, and crawl order —
// re-running a site's attempt anywhere reproduces them byte for byte.
// There is no retry here: the sites that failed go back in the Complete
// frame, and the coordinator's queue retries each under the RetryPolicy
// a local crawl's sites get. Each block is valid only until emit
// returns (fabric.BatchRunner).
func (r *FabricRunner) RunBatch(ctx context.Context, batch wire.Batch, emit func(site string, block []byte) error) (int, map[string]string, error) {
	sites := make([]crawler.Site, len(batch.Sites))
	for i, s := range batch.Sites {
		sites[i] = crawler.Site{Domain: s.Domain, Rank: s.Rank, Attempt: s.Attempt}
	}
	var stats crawler.Stats
	return r.plane.runGrant(ctx, sites, &stats, func(site string, rec *analysis.PageRecord) error {
		buf := blockBuffers.Get().(*[]byte)
		*buf = colstore.AppendPageBlock((*buf)[:0], rec)
		err := emit(site, *buf)
		blockBuffers.Put(buf)
		return err
	})
}

// FabricCoordinatorOptions parameterizes StartFabricCoordinator.
type FabricCoordinatorOptions struct {
	// Addr is the listen address (":0" picks a port).
	Addr string
	// BatchSize is the most sites one grant leases (default 16).
	BatchSize int
	// LeaseTTL bounds unheartbeated grants (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-site attempt budget (default 3), as on the
	// local path.
	MaxAttempts int
	// CheckpointPath names no file: nothing is written at it. When
	// StoreDir is empty it places the store, as store-crawlN in the
	// directory of this path; bench/ sets only it.
	CheckpointPath string
	// SpoolDir is read by nothing: no crawl writes a spool. It stays
	// declared only so bench/ compiles until ROADMAP 1(b).
	SpoolDir string
	// Resume continues from the crawl's store instead of starting fresh.
	Resume bool
	// StoreDir is the crawl's columnar store, its one durable state (see
	// fabric.CoordinatorConfig.StoreDir); empty means store-crawlN beside
	// CheckpointPath. One of the two is required.
	StoreDir string
	// Logf receives coordinator progress lines; nil means silent.
	Logf func(format string, args ...any)
}

// StartFabricCoordinator derives the site list for a crawl spec and
// starts a coordinator serving it; its workers crawl under
// opts.FaultProfile and opts.FaultSeed, which the welcome frame carries.
// Its store must outlive the process, so it refuses options that name
// no location for it, and it refuses an unknown fault profile before it
// listens rather than let every worker fail on it.
func StartFabricCoordinator(opts Options, spec CrawlSpec, fo FabricCoordinatorOptions) (*fabric.Coordinator, error) {
	if fo.StoreDir == "" && fo.CheckpointPath == "" {
		return nil, errors.New("core: a fabric coordinator needs its store's location (StoreDir or CheckpointPath)")
	}
	if _, err := faultProfile(opts.FaultProfile); err != nil {
		return nil, err
	}
	storeDir := fo.StoreDir
	if storeDir == "" {
		storeDir = storeIn(filepath.Dir(fo.CheckpointPath), spec)
	}
	return fabric.StartCoordinator(fo.Addr, fabric.CoordinatorConfig{
		Crawl:     FabricCrawlConfig(opts, spec),
		Sites:     FabricSites(opts, spec),
		BatchSize: fo.BatchSize,
		LeaseTTL:  fo.LeaseTTL,
		Retry:     dispatch.RetryPolicy{MaxAttempts: fo.MaxAttempts},
		StoreDir:  storeDir,
		Resume:    fo.Resume,
		Logf:      fo.Logf,
	})
}

// FabricWorkerOptions parameterizes RunFabricWorker.
type FabricWorkerOptions struct {
	// Name identifies the worker in coordinator logs. Required.
	Name string
	// URL is the coordinator's ws:// endpoint. Required.
	URL string
	// Workers is the crawl parallelism inside this worker process.
	Workers int
	// Seed drives the worker's dial backoff and frame masking. The
	// crawl's own seeds and fault profile come from the coordinator.
	Seed int64
	// Logf receives worker progress lines; nil means silent.
	Logf func(format string, args ...any)
}

// RunFabricWorker joins a coordinator and executes grants with
// the full page pipeline until the crawl drains or ctx ends.
func RunFabricWorker(ctx context.Context, wo FabricWorkerOptions) error {
	return fabric.RunWorker(ctx, fabric.WorkerConfig{
		Name: wo.Name,
		URL:  wo.URL,
		NewRunner: func(cfg wire.CrawlConfig) (fabric.BatchRunner, error) {
			return NewFabricRunner(cfg, wo.Workers)
		},
		Seed: wo.Seed,
		Logf: wo.Logf,
	})
}
