// Package core is the public entry point of the reproduction: it wires
// the synthetic web, the instrumented browser, the crawler, the labeler,
// and the analysis into the paper's four-crawl study, and renders every
// table and figure of the evaluation.
//
// Typical use:
//
//	study, err := core.RunStudy(ctx, core.DefaultOptions())
//	fmt.Println(study.Report())
//
// Individual crawls are available through RunCrawl. Custom worlds and
// blocker-equipped browsers are built from the underlying packages
// directly (webgen, webserver, browser.New with adblock extensions), as
// the programs under examples/ do.
package core

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/webgen"
)

// CrawlSpec identifies one crawl of the study.
type CrawlSpec struct {
	// Name labels the crawl in tables ("Apr 02-05, 2017").
	Name string
	// Era selects company behaviour relative to the Chrome 58 patch.
	Era webgen.Era
	// CrawlIndex perturbs session-level randomness between crawls.
	CrawlIndex int
	// BrowserVersion is the Chrome version current at crawl time.
	BrowserVersion int
}

// DefaultCrawls returns the paper's four crawls (Table 1).
func DefaultCrawls() []CrawlSpec {
	return []CrawlSpec{
		{Name: "Apr 02-05, 2017", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57},
		{Name: "Apr 11-16, 2017", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57},
		{Name: "May 07-12, 2017", Era: webgen.EraPostPatch, CrawlIndex: 2, BrowserVersion: 58},
		{Name: "Oct 12-16, 2017", Era: webgen.EraPostPatch, CrawlIndex: 3, BrowserVersion: 61},
	}
}

// Options parameterizes a study run.
type Options struct {
	// Seed drives the whole study deterministically.
	Seed int64
	// NumPublishers scales the synthetic web (the paper crawled 100K
	// sites; the default reproduction is laptop-scale).
	NumPublishers int
	// Workers is the crawl parallelism.
	Workers int
	// PagesPerSite is the per-site page budget (paper: 15).
	PagesPerSite int
	// Dispatch, if non-nil, routes crawls through the durable
	// orchestrator (internal/dispatch): lease-backed queue, retries,
	// checkpoint/resume, and sharded spooling.
	Dispatch *DispatchOptions
	// Store routes dispatch-path crawls through the embedded columnar
	// store (internal/colstore): every page record is ingested as it
	// arrives, segments seal atomically at each checkpoint boundary, and
	// the store owns the crawl's fold, so the dataset is its incremental
	// aggregate. The spool stays behind as the differential oracle —
	// store-derived tables are byte-identical to merge-derived ones
	// (TestStoreDifferential).
	// Requires Dispatch; the sealed store is queryable with cmd/wsquery.
	Store bool
	// FaultProfile, when non-empty, names a faultnet profile (see
	// faultnet.Names) injected on both sides of the wire: uniformly on
	// the web server's listener and per-socket on every browser's
	// WebSocket dials. FaultSeed keys the schedules; the same
	// (Seed, FaultSeed, FaultProfile) triple reproduces the same
	// degraded dataset byte for byte.
	FaultProfile string
	FaultSeed    int64
}

// DispatchOptions configures the durable orchestrator path.
type DispatchOptions struct {
	// StateDir is the root for per-crawl checkpoints and spool shards
	// (crawlN.checkpoint.json, spool-crawlN/). Required unless both
	// CheckpointPath and SpoolDir are set for a single-crawl run.
	StateDir string
	// CheckpointPath / SpoolDir / StoreDir override the StateDir-derived
	// layout for single-crawl use (cmd/wscrawl's -checkpoint /
	// -spool-dir / -store-dir).
	CheckpointPath string
	SpoolDir       string
	StoreDir       string
	// Resume continues an interrupted crawl from its checkpoint.
	Resume bool
	// NumShards is the spool shard count (default 8).
	NumShards int
	// MaxAttempts is the per-site attempt budget (default 3).
	MaxAttempts int
}

// checkpointPath resolves the checkpoint file for one crawl.
func (d *DispatchOptions) checkpointPath(spec CrawlSpec) string {
	if d.CheckpointPath != "" {
		return d.CheckpointPath
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("crawl%d.checkpoint.json", spec.CrawlIndex))
}

// spoolDir resolves the spool directory for one crawl.
func (d *DispatchOptions) spoolDir(spec CrawlSpec) string {
	if d.SpoolDir != "" {
		return d.SpoolDir
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("spool-crawl%d", spec.CrawlIndex))
}

// storeDir resolves the columnar store directory for one crawl.
func (d *DispatchOptions) storeDir(spec CrawlSpec) string {
	if d.StoreDir != "" {
		return d.StoreDir
	}
	return filepath.Join(d.StateDir, fmt.Sprintf("store-crawl%d", spec.CrawlIndex))
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Seed:          20170419,
		NumPublishers: 600,
		Workers:       8,
		PagesPerSite:  15,
	}
}

// CrawlResult is one completed crawl.
type CrawlResult struct {
	Spec    CrawlSpec
	Dataset *analysis.Dataset
	Stats   crawler.Stats
	// Dispatch carries the orchestrator's extra outcome (retries,
	// resume counters, failed sites) when the dispatch path ran.
	Dispatch *dispatch.Result
}

// RunCrawl generates the world for a crawl spec, serves it, crawls it,
// and returns the measurement dataset. With opts.Dispatch set the crawl
// runs through the durable orchestrator (checkpointed, retried,
// resumable); otherwise it is a one-shot in-memory pass. Both run the
// same page plane, so the dataset is byte-identical either way.
func RunCrawl(ctx context.Context, opts Options, spec CrawlSpec) (*CrawlResult, error) {
	return runCrawl(ctx, opts, spec, false)
}

// runCrawl is RunCrawl with the plane selection exposed: reference=true
// is the differential oracle (see pagePlane.reference).
func runCrawl(ctx context.Context, opts Options, spec CrawlSpec, reference bool) (*CrawlResult, error) {
	if opts.Store && opts.Dispatch == nil {
		return nil, fmt.Errorf("core: crawl %q: Options.Store requires the dispatch path (set Options.Dispatch)", spec.Name)
	}
	plane, err := newPagePlane(opts, spec, reference)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	var res *CrawlResult
	if opts.Dispatch != nil {
		res, err = plane.crawlDispatch(ctx)
	} else {
		res, err = plane.crawlInMemory(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("core: crawl %q: %w", spec.Name, err)
	}
	return res, nil
}

// crawlInMemory is the one-shot pass: every page record is folded
// straight into the dataset by the same analysis.Folder the dispatch
// path folds through, with nothing written to disk.
func (p *pagePlane) crawlInMemory(ctx context.Context) (*CrawlResult, error) {
	folder := analysis.NewFolder(FabricDatasetMeta(p.spec))
	stats, err := crawler.Crawl(ctx, p.sites, p.crawlerConfig(func(site crawler.Site, pageURL string, res *browser.PageResult) {
		rec, err := p.recorder.RecordPage(site, pageURL, res)
		if err != nil {
			return // unparseable page: drop it, as the dispatch path does
		}
		folder.Fold(rec)
	}))
	if err != nil {
		return nil, err
	}
	ds, _ := folder.Finalize()
	return &CrawlResult{Spec: p.spec, Dataset: ds, Stats: stats}, nil
}

// crawlDispatch routes the crawl through the durable orchestrator.
func (p *pagePlane) crawlDispatch(ctx context.Context) (*CrawlResult, error) {
	d := p.opts.Dispatch
	storeDir := ""
	if p.opts.Store {
		storeDir = d.storeDir(p.spec)
	}
	res, err := dispatch.Run(ctx, dispatch.Config{
		Name:           p.spec.Name,
		Meta:           FabricDatasetMeta(p.spec),
		Sites:          p.sites,
		Workers:        p.opts.Workers,
		PagesPerSite:   p.opts.PagesPerSite,
		Seed:           p.crawlSeed(),
		NewBrowser:     func(site crawler.Site, _ int) *browser.Browser { return p.browserFor(site) },
		Recorder:       p.recorder,
		SpoolDir:       d.spoolDir(p.spec),
		NumShards:      d.NumShards,
		CheckpointPath: d.checkpointPath(p.spec),
		StoreDir:       storeDir,
		Resume:         d.Resume,
		Retry:          dispatch.RetryPolicy{MaxAttempts: d.MaxAttempts},
	})
	if err != nil {
		return nil, err
	}
	return &CrawlResult{Spec: p.spec, Dataset: res.Dataset, Stats: res.Stats, Dispatch: res}, nil
}

// Study is the completed four-crawl measurement.
type Study struct {
	Options Options
	Results []*CrawlResult
}

// RunStudy executes the paper's full methodology: two crawls before the
// patch, two after.
func RunStudy(ctx context.Context, opts Options) (*Study, error) {
	opts = withDefaults(opts)
	study := &Study{Options: opts}
	for _, spec := range DefaultCrawls() {
		res, err := RunCrawl(ctx, opts, spec)
		if err != nil {
			return nil, err
		}
		study.Results = append(study.Results, res)
	}
	return study, nil
}

func withDefaults(opts Options) Options {
	def := DefaultOptions()
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if opts.NumPublishers <= 0 {
		opts.NumPublishers = def.NumPublishers
	}
	if opts.Workers <= 0 {
		opts.Workers = def.Workers
	}
	if opts.PagesPerSite <= 0 {
		opts.PagesPerSite = def.PagesPerSite
	}
	return opts
}

// Datasets returns the study's datasets in crawl order.
func (s *Study) Datasets() []*analysis.Dataset {
	out := make([]*analysis.Dataset, len(s.Results))
	for i, r := range s.Results {
		out[i] = r.Dataset
	}
	return out
}

// Report renders every table and figure of the paper's evaluation
// (analysis.Report over the study's datasets).
func (s *Study) Report() string { return analysis.Report(s.Datasets()...) }
