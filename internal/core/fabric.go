// Fabric wiring: adapters that run the page plane under the distributed
// dispatcher (internal/fabric). The coordinator side builds the site
// list and batch plan from the same synthetic-world parameters a local
// crawl uses; the worker side rebuilds the page plane (plane.go) from
// the CrawlConfig the coordinator broadcasts, so every worker crawls an
// identical world and a site's spool lines are byte-identical no matter
// which worker — or how many workers — produced them (DESIGN.md §12).

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/fabric"
	"repro/internal/fabric/wire"
	"repro/internal/faultnet"
	"repro/internal/webgen"
)

// FabricCrawlConfig renders a crawl spec as the wire config the
// coordinator broadcasts to workers.
func FabricCrawlConfig(opts Options, spec CrawlSpec) wire.CrawlConfig {
	opts = withDefaults(opts)
	return wire.CrawlConfig{
		Name:           spec.Name,
		Era:            spec.Era.String(),
		CrawlIndex:     spec.CrawlIndex,
		BrowserVersion: spec.BrowserVersion,
		Seed:           opts.Seed,
		NumPublishers:  opts.NumPublishers,
		PagesPerSite:   opts.PagesPerSite,
	}
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

// FabricRunner executes leased batches on a worker: it owns the page
// plane rebuilt from the coordinator's crawl config — the same plane,
// with the same per-site seeded browsers, that RunCrawl runs locally.
type FabricRunner struct {
	plane *pagePlane
}

// NewFabricRunner rebuilds the measurement stack from a coordinator's
// crawl config.
func NewFabricRunner(cfg wire.CrawlConfig, workers int) (*FabricRunner, error) {
	var era webgen.Era
	switch cfg.Era {
	case webgen.EraPrePatch.String():
		era = webgen.EraPrePatch
	case webgen.EraPostPatch.String():
		era = webgen.EraPostPatch
	default:
		return nil, fmt.Errorf("core: fabric crawl config has unknown era %q", cfg.Era)
	}
	plane, err := newPagePlane(Options{
		Seed:          cfg.Seed,
		NumPublishers: cfg.NumPublishers,
		Workers:       workers,
		PagesPerSite:  cfg.PagesPerSite,
	}, CrawlSpec{
		Name:           cfg.Name,
		Era:            era,
		CrawlIndex:     cfg.CrawlIndex,
		BrowserVersion: cfg.BrowserVersion,
	}, false)
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

// batchSource feeds one batch's sites to the crawl worker pool and
// collects permanent site failures.
type batchSource struct {
	mu     sync.Mutex
	sites  []crawler.Site
	next   int
	failed map[string]string
}

func (s *batchSource) Next(ctx context.Context) (crawler.Site, bool) {
	if ctx.Err() != nil {
		return crawler.Site{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.sites) {
		return crawler.Site{}, false
	}
	site := s.sites[s.next]
	s.next++
	return site, true
}

func (s *batchSource) Done(site crawler.Site, pages int, err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil {
		s.failed = map[string]string{}
	}
	s.failed[site.Domain] = err.Error()
}

// RunBatch crawls every site in the batch, streaming each page record
// as a pre-encoded spool line. Browsers are seeded per site
// (crawler.SiteSeed), so the lines are independent of batch membership,
// worker identity, and crawl order — re-running a batch anywhere
// reproduces them byte for byte. There is no per-site retry here:
// retries happen at batch granularity through the coordinator's lease
// attempts.
func (r *FabricRunner) RunBatch(ctx context.Context, batch wire.Batch, emit func(site string, line []byte) error) (int, map[string]string, error) {
	sites := make([]crawler.Site, len(batch.Sites))
	for i, s := range batch.Sites {
		sites[i] = crawler.Site{Domain: s.Domain, Rank: s.Rank}
	}
	src := &batchSource{sites: sites}
	var pages atomic.Int64
	cfg := r.plane.crawlerConfig(func(site crawler.Site, pageURL string, res *browser.PageResult) {
		rec, err := r.plane.recorder.RecordPage(site, pageURL, res)
		if err != nil {
			src.Done(site, 0, err)
			return
		}
		var buf bytes.Buffer
		if err := analysis.EncodeSpoolRecord(&buf, rec); err != nil {
			src.Done(site, 0, err)
			return
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if err := emit(site.Domain, line); err != nil {
			return // emit cancels the batch context itself
		}
		pages.Add(1)
	})
	if _, err := crawler.CrawlSource(ctx, src, cfg); err != nil {
		return int(pages.Load()), nil, err
	}
	src.mu.Lock()
	failed := src.failed
	src.mu.Unlock()
	return int(pages.Load()), failed, nil
}

// FabricCoordinatorOptions parameterizes StartFabricCoordinator.
type FabricCoordinatorOptions struct {
	// Addr is the listen address (":0" picks a port).
	Addr string
	// BatchSize is sites per leased batch (default 16).
	BatchSize int
	// NumShards is the spool shard count (default 8).
	NumShards int
	// LeaseTTL bounds unheartbeated batch leases (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-batch attempt budget (default 3).
	MaxAttempts int
	// CheckpointPath / SpoolDir locate the coordinator's durable state.
	CheckpointPath string
	SpoolDir       string
	// Resume continues from CheckpointPath instead of starting fresh.
	Resume bool
	// StoreDir, when non-empty, also streams every page record into a
	// columnar store at this directory (see
	// fabric.CoordinatorConfig.StoreDir).
	StoreDir string
	// FaultProfile, when non-empty, degrades every worker link with the
	// named faultnet profile, keyed on FaultSeed.
	FaultProfile string
	FaultSeed    int64
	// Logf receives coordinator progress lines; nil means silent.
	Logf func(format string, args ...any)
}

// StartFabricCoordinator derives the site list for a crawl spec and
// starts a batch coordinator serving it.
func StartFabricCoordinator(opts Options, spec CrawlSpec, fo FabricCoordinatorOptions) (*fabric.Coordinator, error) {
	fault, err := faultProfile(fo.FaultProfile)
	if err != nil {
		return nil, err
	}
	return fabric.StartCoordinator(fo.Addr, fabric.CoordinatorConfig{
		Crawl:          FabricCrawlConfig(opts, spec),
		Sites:          FabricSites(opts, spec),
		BatchSize:      fo.BatchSize,
		NumShards:      fo.NumShards,
		LeaseTTL:       fo.LeaseTTL,
		Retry:          dispatch.RetryPolicy{MaxAttempts: fo.MaxAttempts},
		CheckpointPath: fo.CheckpointPath,
		SpoolDir:       fo.SpoolDir,
		Resume:         fo.Resume,
		StoreDir:       fo.StoreDir,
		Fault:          fault,
		FaultSeed:      fo.FaultSeed,
		Logf:           fo.Logf,
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
	// Seed drives the worker's dial backoff and frame masking.
	Seed int64
	// FaultProfile, when non-empty, degrades this worker's coordinator
	// link with the named faultnet profile, keyed on FaultSeed.
	FaultProfile string
	FaultSeed    int64
	// Logf receives worker progress lines; nil means silent.
	Logf func(format string, args ...any)
}

// RunFabricWorker joins a coordinator and executes leased batches with
// the full page pipeline until the crawl drains or ctx ends.
func RunFabricWorker(ctx context.Context, wo FabricWorkerOptions) error {
	fault, err := faultProfile(wo.FaultProfile)
	if err != nil {
		return err
	}
	var wrap func(net.Conn) net.Conn
	if fault.Enabled() {
		var dials atomic.Int64
		wrap = func(nc net.Conn) net.Conn {
			// A fresh schedule per dial: a reconnect must not replay the
			// exact fault position that killed the previous link.
			return faultnet.WrapConn(nc, fault, wo.FaultSeed+dials.Add(1))
		}
	}
	return fabric.RunWorker(ctx, fabric.WorkerConfig{
		Name: wo.Name,
		URL:  wo.URL,
		NewRunner: func(cfg wire.CrawlConfig) (fabric.BatchRunner, error) {
			return NewFabricRunner(cfg, wo.Workers)
		},
		Seed:     wo.Seed,
		WrapConn: wrap,
		Logf:     wo.Logf,
	})
}
