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
// Individual crawls are available through RunCrawl. Every crawl is one
// loop over internal/dispatch's queue and ledger — lease a grant, crawl
// its sites through the page plane (plane.go), emit each page's record
// into the ledger, which ingests it into the crawl's columnar store,
// settle the grant — which RunCrawl runs in-process
// (dispatch.Run) and the fabric entry points (fabric.go) run over the
// wire; a crawl whose Options name no location keeps its state in a
// temporary directory. Custom worlds and
// blocker-equipped browsers are built from the underlying packages
// directly (webgen, webserver, browser.New with adblock extensions), as
// the programs under examples/ do.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
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
	// Dispatch locates and tunes the durable grant loop every crawl runs
	// through (internal/dispatch): lease-backed queue, retries, resume,
	// and the crawl's columnar store (internal/colstore) — its one
	// durable state — which ingests every page record and every settled
	// attempt's outcome row as they arrive, seals its segments atomically
	// at each commit and owns the crawl's fold, and which cmd/wsquery
	// queries. Nil, like options naming no location, keeps each crawl's
	// store in a temporary directory.
	Dispatch *DispatchOptions
	// Store is read by nothing: every crawl writes its store. It stays
	// declared only so bench/ compiles until ROADMAP 1(b).
	Store bool
	// FaultProfile, when non-empty, names a faultnet profile (see
	// faultnet.Names) that every browser injects into each of its
	// logical connections, fetches and WebSocket dials alike, in either
	// role: a fabric coordinator sends both fields to its workers.
	// FaultSeed keys the schedules, per site and attempt; the same
	// (Seed, FaultSeed, FaultProfile) triple reproduces the same degraded
	// dataset byte for byte, locally or on the fabric.
	FaultProfile string
	FaultSeed    int64
}

// DispatchOptions configures a crawl's durable state: its store.
type DispatchOptions struct {
	// StateDir is the root for per-crawl stores (store-crawlN/). When it
	// and StoreDir are both empty, the crawl keeps its store in a
	// temporary directory.
	StateDir string
	// StoreDir overrides the StateDir-derived layout for single-crawl
	// use (cmd/wscrawl's -store-dir).
	StoreDir string
	// Resume continues an interrupted crawl from its store.
	Resume bool
	// MaxAttempts is the per-site attempt budget (default 3).
	MaxAttempts int
}

// StorePath resolves the columnar store directory of one crawl:
// StoreDir, else store-crawlN under StateDir.
func (d *DispatchOptions) StorePath(spec CrawlSpec) string {
	if d.StoreDir != "" {
		return d.StoreDir
	}
	return storeIn(d.StateDir, spec)
}

// storeIn is where a crawl's store lives by default: store-crawlN in
// dir.
func storeIn(dir string, spec CrawlSpec) string {
	return filepath.Join(dir, fmt.Sprintf("store-crawl%d", spec.CrawlIndex))
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
	// Dispatch carries dispatch's per-site outcome (retries,
	// resume counters, failed sites).
	Dispatch *dispatch.Result
}

// RunCrawl generates the world for a crawl spec, serves it, crawls it
// through dispatch.Run's grant loop (internal/dispatch: lease-backed
// queue, retries, columnar store) and returns the measurement dataset.
// When opts.Dispatch names no location, the crawl's store lives in a
// temporary directory that is removed before RunCrawl returns.
func RunCrawl(ctx context.Context, opts Options, spec CrawlSpec) (*CrawlResult, error) {
	plane, err := newPagePlane(opts, spec)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	res, err := plane.crawl(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: crawl %q: %w", spec.Name, err)
	}
	return res, nil
}

// crawl runs the plane's sites through dispatch.Run, each grant with
// runGrant, and counts the attempts in the result's Stats. Only state
// that must outlive the process needs a location, and a resume reads a
// store, so it refuses a crawl that names none.
func (p *pagePlane) crawl(ctx context.Context) (*CrawlResult, error) {
	var d DispatchOptions
	if p.opts.Dispatch != nil {
		d = *p.opts.Dispatch
	}
	if d.StateDir == "" && d.StoreDir == "" {
		if d.Resume {
			return nil, errors.New("resuming needs the interrupted crawl's location (StateDir or StoreDir)")
		}
		tmp, err := os.MkdirTemp("", "crawl-state-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		d.StateDir = tmp
	}
	var stats crawler.Stats
	// The store pins the fault profile and seed a coordinator of the
	// same crawl pins, so either role resumes the other's store.
	wireCfg := FabricCrawlConfig(p.opts, p.spec)
	res, err := dispatch.Run(ctx, dispatch.Config{
		Meta:         FabricDatasetMeta(p.spec),
		Sites:        p.sites,
		Workers:      p.opts.Workers,
		PagesPerSite: p.opts.PagesPerSite,
		Seed:         p.crawlSeed(),
		FaultProfile: wireCfg.FaultProfile,
		FaultSeed:    wireCfg.FaultSeed,
		RunGrant: func(ctx context.Context, sites []crawler.Site, emit func(string, *analysis.PageRecord) error) (map[string]string, error) {
			_, failed, err := p.runGrant(ctx, sites, &stats, emit)
			return failed, err
		},
		StoreDir: d.StorePath(p.spec),
		Resume:   d.Resume,
		Retry:    dispatch.RetryPolicy{MaxAttempts: d.MaxAttempts},
	})
	if err != nil {
		return nil, err
	}
	return &CrawlResult{Spec: p.spec, Dataset: res.Dataset, Stats: stats, Dispatch: res}, nil
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
