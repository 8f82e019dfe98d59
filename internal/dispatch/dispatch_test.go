package dispatch

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// testEnv is a small synthetic web plus everything a dispatch run
// needs against it.
type testEnv struct {
	world  *webgen.World
	server *webserver.Server
	sites  []crawler.Site
}

func newTestEnv(t *testing.T, publishers int) *testEnv {
	t.Helper()
	w := webgen.NewWorld(webgen.Config{Seed: 31, NumPublishers: publishers, Era: webgen.EraPrePatch})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sites := make([]crawler.Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	return &testEnv{world: w, server: s, sites: sites}
}

const testSeed = 99

func (e *testEnv) goodBrowser(site crawler.Site) *browser.Browser {
	return browser.New(browser.Config{
		Version:    57,
		Seed:       crawler.SiteSeed(testSeed, site.Domain),
		HTTPClient: e.server.Client(),
		ResolveWS:  e.server.Resolver(),
	})
}

// testRunner is core's page plane in miniature, the GrantRunner every
// test crawl runs: each site with the browser browserFor builds for it —
// the granted site carries its attempt — each page recorded and its
// record emitted.
type testRunner struct {
	rec        *analysis.Recorder
	browserFor func(site crawler.Site) *browser.Browser
	// onPage, when set, runs after each page the ledger took.
	onPage func()
	stats  crawler.Stats
}

// runner builds a test runner over good browsers; the labeler is only
// read by the record step, never mutated, so per-run instances are
// equivalent.
func (e *testEnv) runner() *testRunner {
	lab := labeler.New(
		filterlist.Parse("easylist", e.world.EasyListText()),
		filterlist.Parse("easyprivacy", e.world.EasyPrivacyText()),
	)
	lab.SetCDNMap(e.world.CloudfrontMap())
	return &testRunner{
		rec:        analysis.NewRecorder(lab),
		browserFor: e.goodBrowser,
	}
}

func (r *testRunner) run(ctx context.Context, sites []crawler.Site, emit func(string, *analysis.PageRecord) error) (map[string]string, error) {
	return crawler.Crawl(ctx, sites, crawler.Config{
		PagesPerSite: 3,
		Seed:         testSeed,
		SiteBrowser:  r.browserFor,
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			rec, err := r.rec.RecordPage(site, pageURL, res)
			if err != nil {
				return
			}
			if emit(site.Domain, rec) == nil && r.onPage != nil {
				r.onPage()
			}
		},
	}, &r.stats)
}

// config returns a baseline dispatch config rooted at dir, crawling with
// r (a fresh env.runner() when nil).
func (e *testEnv) config(dir string, workers int, r *testRunner) Config {
	if r == nil {
		r = e.runner()
	}
	return Config{
		Meta:         analysis.DatasetMeta{Name: "test-crawl", Era: "pre-patch", CrawlIndex: 0},
		Sites:        e.sites,
		Workers:      workers,
		PagesPerSite: 3,
		Seed:         testSeed,
		RunGrant:     r.run,
		StoreDir:     filepath.Join(dir, "store"),
		Retry:        RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
}

// coldStore is the dataset a cold read-only open of the store a
// finished run left in dir derives: the query service's view, and the
// oracle a run's own dataset is held to.
func coldStore(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := colstore.OpenRead(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := st.Dataset()
	return datasetBytes(t, ds)
}

// storeFiles maps the name of each file of the store a run left in dir
// to its bytes.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "store", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func datasetBytes(t *testing.T, d *analysis.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicShardsAndDataset: same seed, no faults ⇒ identical
// store segment bytes (single worker) and byte-identical datasets
// regardless of worker count.
func TestDeterministicShardsAndDataset(t *testing.T) {
	env := newTestEnv(t, 20)
	run := func(dir string, workers int) *Result {
		res, err := Run(context.Background(), env.config(dir, workers, nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	resA := run(dirA, 1)
	resB := run(dirB, 1)
	resC := run(dirC, 4)

	// Single-worker runs replay the same lease order: the stores'
	// files are byte-identical.
	segsA, segsB := storeFiles(t, dirA), storeFiles(t, dirB)
	if len(segsA) < 2 || !reflect.DeepEqual(segsA, segsB) {
		t.Errorf("stores differ between identical runs: %d and %d files", len(segsA), len(segsB))
	}

	// The merged dataset is canonical: identical bytes even across
	// different worker counts.
	bytesA := datasetBytes(t, resA.Dataset)
	if !bytes.Equal(bytesA, datasetBytes(t, resB.Dataset)) {
		t.Error("datasets differ between identical single-worker runs")
	}
	if !bytes.Equal(bytesA, datasetBytes(t, resC.Dataset)) {
		t.Error("dataset depends on worker count")
	}
	if resA.Merge.Duplicates != 0 {
		t.Errorf("clean run merge stats: %+v", resA.Merge)
	}
	if len(resA.Dataset.Sites) != len(env.sites) {
		t.Errorf("sites = %d, want %d", len(resA.Dataset.Sites), len(env.sites))
	}
}

// TestKillAndResumeConvergesToUninterruptedRun is the acceptance
// scenario: a crawl killed mid-run, resumed from its store, produces the
// same dataset — and the same Table 1 rows — as an uninterrupted run
// with the same seed.
func TestKillAndResumeConvergesToUninterruptedRun(t *testing.T) {
	env := newTestEnv(t, 20)

	fullDir := t.TempDir()
	full, err := Run(context.Background(), env.config(fullDir, 2, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: kill (cancel) after 10 emitted pages, with a
	// commit after every site so the kill lands between commits too.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	r := env.runner()
	r.onPage = func() {
		if pages.Add(1) == 10 {
			cancel()
		}
	}
	cfg := env.config(dir, 2, r)
	cfg.commitEvery = 1
	res1, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if res1.Dataset != nil {
		t.Error("cancelled run produced a dataset")
	}
	done := doneSites(sealedRows(t, cfg.StoreDir))
	if len(done) == 0 || len(done) == len(env.sites) {
		t.Fatalf("the store marks %d sites done, want a strict subset", len(done))
	}

	// Resume and converge.
	r2 := env.runner()
	cfg2 := env.config(dir, 2, r2)
	cfg2.commitEvery = 1
	cfg2.Resume = true
	res2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedDone != len(done) {
		t.Errorf("resumed %d sites, the store marked %d done", res2.ResumedDone, len(done))
	}
	if r2.stats.Sites >= int64(len(env.sites)) {
		t.Errorf("resume re-crawled everything: %d site attempts", r2.stats.Sites)
	}
	if !bytes.Equal(datasetBytes(t, full.Dataset), datasetBytes(t, res2.Dataset)) {
		t.Error("resumed dataset differs from uninterrupted run")
	}
	if !bytes.Equal(coldStore(t, dir), datasetBytes(t, res2.Dataset)) {
		t.Error("resumed dataset differs from a cold read of its own store")
	}
	t1Full := analysis.Table1(full.Dataset)
	t1Resumed := analysis.Table1(res2.Dataset)
	if !reflect.DeepEqual(t1Full, t1Resumed) {
		t.Errorf("Table 1 differs:\nfull:    %+v\nresumed: %+v", t1Full, t1Resumed)
	}
}

// errTransport fails every request, simulating a down site.
type errTransport struct{}

func (errTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("connection refused")
}

// TestRetryRecoversFlakySite: a site whose first attempt fails
// transiently is retried with backoff and converges to the fault-free
// dataset.
func TestRetryRecoversFlakySite(t *testing.T) {
	env := newTestEnv(t, 12)
	flaky := env.sites[3].Domain

	cleanDir := t.TempDir()
	clean, err := Run(context.Background(), env.config(cleanDir, 2, nil))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r := env.runner()
	r.browserFor = func(site crawler.Site) *browser.Browser {
		if site.Domain == flaky && site.Attempt == 1 {
			return browser.New(browser.Config{
				Version:    57,
				Seed:       crawler.SiteSeed(testSeed, site.Domain),
				HTTPClient: &http.Client{Transport: errTransport{}},
				ResolveWS:  env.server.Resolver(),
			})
		}
		return env.goodBrowser(site)
	}
	res, err := Run(context.Background(), env.config(dir, 2, r))
	if err != nil {
		t.Fatal(err)
	}
	if res.Progress.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", res.Progress.Retries)
	}
	if r.stats.SiteErrors == 0 {
		t.Error("failed attempt not counted in SiteErrors")
	}
	if len(res.FailedSites) != 0 {
		t.Errorf("failed sites: %v", res.FailedSites)
	}
	if !bytes.Equal(datasetBytes(t, clean.Dataset), datasetBytes(t, res.Dataset)) {
		t.Error("retried run's dataset differs from fault-free run")
	}
}

// TestRetryBudgetExhaustion: a permanently dead site fails after its
// attempt budget and the crawl completes without it.
func TestRetryBudgetExhaustion(t *testing.T) {
	env := newTestEnv(t, 8)
	dead := env.sites[0].Domain

	dir := t.TempDir()
	r := env.runner()
	r.browserFor = func(site crawler.Site) *browser.Browser {
		if site.Domain == dead {
			return browser.New(browser.Config{
				Version:    57,
				Seed:       crawler.SiteSeed(testSeed, site.Domain),
				HTTPClient: &http.Client{Transport: errTransport{}},
				ResolveWS:  env.server.Resolver(),
			})
		}
		return env.goodBrowser(site)
	}
	cfg := env.config(dir, 2, r)
	cfg.Retry.MaxAttempts = 2
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.FailedSites[dead]; !ok {
		t.Errorf("dead site not in FailedSites: %v", res.FailedSites)
	}
	if res.Progress.Done != len(env.sites)-1 {
		t.Errorf("done = %d, want %d", res.Progress.Done, len(env.sites)-1)
	}
	for _, s := range res.Dataset.Sites {
		if s.Domain == dead {
			t.Error("dead site leaked into the dataset")
		}
	}
	// The store records the permanent failure, after one retry row per
	// earlier attempt, for later audits.
	var got []colstore.Outcome
	for _, row := range sealedRows(t, cfg.StoreDir) {
		if row.Domain == dead {
			got = append(got, row)
		}
	}
	if len(got) != 2 || got[0].State != colstore.OutcomeRetry || got[1].State != colstore.OutcomeFailed || got[1].Attempt != 2 || got[1].Err == "" {
		t.Errorf("the dead site's rows: %+v, want a retry then a failure at attempt 2", got)
	}
}

// TestRunValidatesConfig covers the required-field errors.
func TestRunValidatesConfig(t *testing.T) {
	env := newTestEnv(t, 2)
	base := env.config(t.TempDir(), 1, nil)

	missingRunner := base
	missingRunner.RunGrant = nil
	if _, err := Run(context.Background(), missingRunner); err == nil {
		t.Error("missing RunGrant accepted")
	}
	missingStore := base
	missingStore.StoreDir = ""
	if _, err := Run(context.Background(), missingStore); err == nil {
		t.Error("missing StoreDir accepted")
	}
}

// TestResumeRejectsMismatchedCheckpoint: resuming with a different
// seed or page budget than the store pins must fail loudly rather than
// mix two crawls' pages.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	env := newTestEnv(t, 4)
	dir := t.TempDir()
	if _, err := Run(context.Background(), env.config(dir, 1, nil)); err != nil {
		t.Fatal(err)
	}
	bad := env.config(dir, 1, nil)
	bad.Resume = true
	bad.Seed = testSeed + 1
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("seed mismatch accepted on resume")
	}
	cfg := env.config(dir, 1, nil)
	cfg.PagesPerSite++
	cfg.Resume = true
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("page budget mismatch accepted on resume")
	}
}
