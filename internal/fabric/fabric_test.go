package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
	"repro/internal/faultnet"
	"repro/internal/obs"
)

// fakeRunner is a deterministic BatchRunner: every site yields
// pagesPerSite fixed lines, so the canonical store content is a pure
// function of the site list — exactly the property the real pipeline
// has — without paying for real page loads in protocol tests.
type fakeRunner struct {
	pagesPerSite int
	pageDelay    time.Duration
	faults       *siteFaults // nil: every site succeeds
}

// siteFaults fails chosen sites on their first runs, counting runs
// across every runner that shares it (one per worker), so a site's
// first run is the crawl's first, whichever worker made it.
type siteFaults struct {
	mu    sync.Mutex
	fails map[string]int // site → how many of its first runs fail
	runs  map[string]int
}

// run counts one run of site and returns the error it fails with, or
// "" when it succeeds.
func (f *siteFaults) run(site string) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runs[site]++
	if n := f.runs[site]; n <= f.fails[site] {
		return fmt.Sprintf("homepage 500 (run %d)", n)
	}
	return ""
}

func (r *fakeRunner) RunBatch(ctx context.Context, b wire.Batch, emit func(string, []byte) error) (int, map[string]string, error) {
	pages := 0
	var failed map[string]string
	for _, s := range b.Sites {
		if msg := r.faults.run(s.Domain); msg != "" {
			if failed == nil {
				failed = map[string]string{}
			}
			failed[s.Domain] = msg
			continue
		}
		for p := 0; p < r.pagesPerSite; p++ {
			if r.pageDelay > 0 {
				select {
				case <-ctx.Done():
					return pages, nil, ctx.Err()
				case <-time.After(r.pageDelay):
				}
			}
			if err := emit(s.Domain, fakeBlock(s, p)); err != nil {
				return pages, nil, err
			}
			pages++
		}
	}
	if err := ctx.Err(); err != nil {
		return pages, nil, err
	}
	return pages, failed, nil
}

func (r *fakeRunner) Close() error { return nil }

// fakeRecord is a minimal but real page record: the coordinator's ledger
// decodes every streamed block, and distinct pageUrls keep a site's pages
// distinct under the live fold.
func fakeRecord(s wire.Site, page int) *analysis.PageRecord {
	return &analysis.PageRecord{Site: s.Domain, Rank: s.Rank, PageURL: fmt.Sprintf("http://%s/p%d", s.Domain, page)}
}

// fakeBlock is fakeRecord as a worker streams it: its page block.
func fakeBlock(s wire.Site, page int) []byte {
	return colstore.AppendPageBlock(nil, fakeRecord(s, page))
}

// fakeLine is fakeRecord as the canonical line the store comparisons
// read: its JSON form.
func fakeLine(s wire.Site, page int) string { return recordLine(fakeRecord(s, page)) }

// recordLine is a record's JSON form.
func recordLine(rec *analysis.PageRecord) string {
	data, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return string(data)
}

func testSites(n int) []crawler.Site {
	sites := make([]crawler.Site, n)
	for i := range sites {
		sites[i] = crawler.Site{Domain: fmt.Sprintf("site%03d.com", i), Rank: i + 1}
	}
	return sites
}

// expectedLines is the canonical store content for a full crawl of
// sites: every page's JSON line exactly once, sorted.
func expectedLines(sites []crawler.Site, pagesPerSite int) []string {
	var out []string
	for _, s := range sites {
		for p := 0; p < pagesPerSite; p++ {
			out = append(out, fakeLine(wire.Site{Domain: s.Domain, Rank: s.Rank}, p))
		}
	}
	sort.Strings(out)
	return out
}

// canonicalStore reads every sealed segment of the store at dir and
// returns its records as JSON lines, sorted. The store keeps a page
// once however often it was streamed (duplicates are dropped at ingest
// and at replay), so a line that appears twice is a bug, not noise.
func canonicalStore(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, seg := range segs {
		recs, _, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			out = append(out, recordLine(rec))
		}
	}
	sort.Strings(out)
	return out
}

func diffLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d canonical lines, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

const testPages = 3

func testCrawlConfig(numSites int) wire.CrawlConfig {
	return wire.CrawlConfig{
		Name: "fabric-test", Era: "pre", BrowserVersion: 57,
		Seed: 42, NumPublishers: numSites, PagesPerSite: testPages,
	}
}

type coordOpts struct {
	addr        string
	ttl         time.Duration
	batchSize   int
	maxAttempts int // default 5
	resume      bool
	crawl       wire.CrawlConfig // default testCrawlConfig(len(sites))
	logf        func(format string, args ...any)
}

func startTestCoordinator(t *testing.T, dir string, sites []crawler.Site, o coordOpts) *Coordinator {
	t.Helper()
	if o.addr == "" {
		o.addr = "127.0.0.1:0"
	}
	if o.ttl == 0 {
		o.ttl = 2 * time.Second
	}
	if o.batchSize == 0 {
		o.batchSize = 4
	}
	if o.logf == nil {
		o.logf = t.Logf
	}
	c, err := startTestCoordinator2(dir, sites, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type workerOpts struct {
	seed   int64
	delay  time.Duration
	fault  string
	faults *siteFaults
}

func runTestWorker(ctx context.Context, name, url string, o workerOpts) error {
	var wrap func(net.Conn) net.Conn
	if o.fault != "" {
		p, _ := faultnet.ByName(o.fault)
		var mu sync.Mutex
		dial := o.seed
		wrap = func(nc net.Conn) net.Conn {
			mu.Lock()
			dial++
			seed := dial
			mu.Unlock()
			return faultnet.WrapConn(nc, p, seed)
		}
	}
	return RunWorker(ctx, WorkerConfig{
		Name: name,
		URL:  url,
		NewRunner: func(cfg wire.CrawlConfig) (BatchRunner, error) {
			return &fakeRunner{pagesPerSite: cfg.PagesPerSite, pageDelay: o.delay, faults: o.faults}, nil
		},
		Seed:     o.seed,
		WrapConn: wrap,
		// Generous budget with tight delays: soak profiles kill many
		// dials in a row and the tests care about convergence, not
		// giving up quickly.
		DialRetry: dispatch.RetryPolicy{MaxAttempts: 500, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
}

// checkNoGoroutineLeak fails the test if the goroutine count does not
// settle back to its baseline; leaked session/keeper goroutines are the
// classic failure mode of a dispatcher under connection churn.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: baseline %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:n])
}

// TestFabricConvergesAcrossWorkerCounts is the acceptance keystone in
// process form: 1, 2, and 4 workers produce the same canonical store
// content, equal to the full expected page set.
func TestFabricConvergesAcrossWorkerCounts(t *testing.T) {
	sites := testSites(30)
	want := expectedLines(sites, testPages)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			c := startTestCoordinator(t, dir, sites, coordOpts{})
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = runTestWorker(ctx, fmt.Sprintf("w%d", i), c.URL(), workerOpts{seed: int64(i + 1)})
				}(i)
			}
			if err := c.Wait(ctx); err != nil {
				t.Fatalf("coordinator never drained: %v", err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			p := c.Progress()
			if p.Done != p.Total || p.Failed != 0 {
				t.Fatalf("progress %+v, want all done", p)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), want)
		})
	}
}

// TestFabricRetriesFailedSites: a site that fails inside a grant retries
// under the coordinator's RetryPolicy, site by site, as dispatch.Run
// retries a local crawl's (TestRetryRecoversFlakySite and
// TestRetryBudgetExhaustion hold these rows there). A flaky site
// recovers at its second attempt with its pages stored, a dead one
// spends its whole budget and keeps the runner's last error — which is
// all FailedSites reports — every other site is done at its first
// attempt, and Progress counts sites.
func TestFabricRetriesFailedSites(t *testing.T) {
	const flaky, dead = "site003.com", "site007.com"
	sites := testSites(12)
	var live []crawler.Site
	for _, s := range sites {
		if s.Domain != dead {
			live = append(live, s)
		}
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			c := startTestCoordinator(t, dir, sites, coordOpts{maxAttempts: 3})
			defer c.Close()
			faults := &siteFaults{fails: map[string]int{flaky: 1, dead: 1 << 30}, runs: map[string]int{}}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = runTestWorker(ctx, fmt.Sprintf("w%d", i), c.URL(), workerOpts{seed: int64(i + 1), faults: faults})
				}(i)
			}
			if err := c.Wait(ctx); err != nil {
				t.Fatalf("coordinator never drained: %v", err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}

			want := dispatch.Progress{Total: 12, Done: 11, Failed: 1, Retries: 3}
			if p := c.Progress(); p != want {
				t.Errorf("progress %+v, want %+v", p, want)
			}
			if failed := c.FailedSites(); len(failed) != 1 || failed[dead] != "homepage 500 (run 3)" {
				t.Errorf("failed sites = %v, want only %s with its last error", failed, dead)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			// Each site's last outcome row is where its attempts ended.
			last := map[string]colstore.Outcome{}
			rows, _ := sealedRows(t, filepath.Join(dir, "store"))
			for _, row := range rows {
				last[row.Domain] = row
			}
			for _, s := range sites {
				state, attempt := colstore.OutcomeDone, 1
				switch s.Domain {
				case flaky:
					attempt = 2
				case dead:
					state, attempt = colstore.OutcomeFailed, 3
				}
				if row := last[s.Domain]; row.State != state || row.Attempt != attempt {
					t.Errorf("%s: last row %+v, want state %d at attempt %d", s.Domain, row, state, attempt)
				}
			}
			if got := last[dead].Err; got != "homepage 500 (run 3)" {
				t.Errorf("dead site's last error = %q, want the runner's error of its third run", got)
			}
			diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), expectedLines(live, testPages))
		})
	}
}

// TestFabricSurvivesWorkerKill: killing a worker mid-batch loses
// nothing — the lease expires, the batch is reclaimed and re-granted,
// and the canonical store still matches a clean run exactly.
func TestFabricSurvivesWorkerKill(t *testing.T) {
	sites := testSites(24)
	want := expectedLines(sites, testPages)
	dir := t.TempDir()
	c := startTestCoordinator(t, dir, sites, coordOpts{ttl: 200 * time.Millisecond, batchSize: 3})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Victim crawls slowly so the kill lands mid-batch.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	victimDone := make(chan error, 1)
	go func() {
		victimDone <- runTestWorker(victimCtx, "victim", c.URL(), workerOpts{seed: 1, delay: 10 * time.Millisecond})
	}()
	survivorDone := make(chan error, 1)
	go func() {
		survivorDone <- runTestWorker(ctx, "survivor", c.URL(), workerOpts{seed: 2, delay: time.Millisecond})
	}()

	time.Sleep(60 * time.Millisecond) // let the victim take a lease
	killVictim()
	if err := <-victimDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim exit = %v, want context.Canceled", err)
	}

	if err := c.Wait(ctx); err != nil {
		t.Fatalf("crawl never drained after worker kill: %v", err)
	}
	if err := <-survivorDone; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), want)
}

// TestFabricSurvivesCoordinatorRestart: the coordinator dies mid-crawl
// and comes back with -resume semantics on the same address; the worker
// rides the outage out on dial retry, completed batches are not re-run,
// the final store is canonical-identical to a clean run, and the dataset
// the resumed coordinator folded is a cold read of that store.
func TestFabricSurvivesCoordinatorRestart(t *testing.T) {
	sites := testSites(24)
	want := expectedLines(sites, testPages)
	dir := t.TempDir()

	// Pre-pick a port so the restarted coordinator can reuse the URL
	// the worker keeps dialing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := coordOpts{addr: addr, ttl: 500 * time.Millisecond, batchSize: 2}
	c1 := startTestCoordinator(t, dir, sites, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- runTestWorker(ctx, "w0", "ws://"+addr+"/fabric", workerOpts{seed: 1, delay: 2 * time.Millisecond})
	}()

	// Let some batches settle, then take the coordinator down.
	for c1.Progress().Done < 3 {
		select {
		case <-ctx.Done():
			t.Fatal("no progress before restart")
		case err := <-workerDone:
			t.Fatalf("worker exited early: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	opts.resume = true
	c2 := restartTestCoordinator(t, ctx, dir, sites, opts)
	defer c2.Close()
	if c2.ResumedDone() < 3 {
		t.Errorf("ResumedDone = %d, want >= 3", c2.ResumedDone())
	}
	if err := c2.Wait(ctx); err != nil {
		t.Fatalf("resumed crawl never drained: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	finalizeBytes(t, c2, dir)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), want)
}

// TestWorkerRefusesAChangedFaultProfile: the fault profile and its seed
// are part of the crawl, so both ends refuse a change of either. The
// store pins them: a coordinator resumed over it with either changed
// is refused at open, before it listens. And a worker reproduces them:
// a coordinator restarted on the same address with either changed —
// over a fresh store, which it can open — is refused at the worker's
// reconnect, as any other change of crawl config is.
func TestWorkerRefusesAChangedFaultProfile(t *testing.T) {
	sites := testSites(24)
	faulted := testCrawlConfig(len(sites))
	faulted.FaultProfile, faulted.FaultSeed = "flaky", 3
	for _, tc := range []struct {
		name   string
		change func(*wire.CrawlConfig)
	}{
		{"profile", func(c *wire.CrawlConfig) { c.FaultProfile = "torn" }},
		{"fault seed", func(c *wire.CrawlConfig) { c.FaultSeed = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()

			opts := coordOpts{addr: addr, ttl: 500 * time.Millisecond, batchSize: 2, crawl: faulted}
			c1 := startTestCoordinator(t, dir, sites, opts)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			workerDone := make(chan error, 1)
			go func() {
				workerDone <- runTestWorker(ctx, "w0", "ws://"+addr+"/fabric", workerOpts{seed: 1, delay: 2 * time.Millisecond})
			}()
			for c1.Progress().Done < 1 {
				select {
				case <-ctx.Done():
					t.Fatal("no progress before restart")
				case err := <-workerDone:
					t.Fatalf("worker exited early: %v", err)
				case <-time.After(5 * time.Millisecond):
				}
			}
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}

			tc.change(&opts.crawl)
			resumed := opts
			resumed.resume = true
			var ce *dispatch.CheckpointError
			if c, err := startTestCoordinator2(dir, sites, resumed); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "fault") {
				if c != nil {
					c.Close()
				}
				t.Fatalf("coordinator resumed over the store with a changed %s: err = %v, want the store refused as another crawl's", tc.name, err)
			}
			c2 := restartTestCoordinator(t, ctx, t.TempDir(), sites, opts)
			defer c2.Close()
			err = <-workerDone
			if err == nil || !strings.Contains(err.Error(), "crawl config changed across reconnect") {
				t.Fatalf("worker reconnecting to a coordinator with a changed %s: err = %v, want it refused", tc.name, err)
			}
			if p := c2.Progress(); p.Done == p.Total {
				t.Errorf("the refused coordinator's crawl drained anyway: %+v", p)
			}
		})
	}
}

// startTestCoordinator2 is startTestCoordinator without the defaults
// and the t.Fatal, so restart loops can retry transient bind failures.
func startTestCoordinator2(dir string, sites []crawler.Site, o coordOpts) (*Coordinator, error) {
	if o.maxAttempts == 0 {
		o.maxAttempts = 5
	}
	if o.crawl.Name == "" {
		o.crawl = testCrawlConfig(len(sites))
	}
	cfg := CoordinatorConfig{
		Crawl:     o.crawl,
		Sites:     sites,
		BatchSize: o.batchSize,
		LeaseTTL:  o.ttl,
		Retry:     dispatch.RetryPolicy{MaxAttempts: o.maxAttempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		StoreDir:  filepath.Join(dir, "store"),
		Resume:    o.resume,
		Logf:      o.logf,
	}
	return StartCoordinator(o.addr, cfg)
}

// TestCoordinatorResumeFailsFast: a corrupt, wrong-version,
// incompatible or damaged store is refused before any listener opens,
// with the versioned, actionable error the single-process path uses.
func TestCoordinatorResumeFailsFast(t *testing.T) {
	sites := testSites(8)
	newOpts := func(dir string) coordOpts { return coordOpts{batchSize: 2, resume: true} }
	manifest := func(t *testing.T, dir, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "store", "store.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		manifest(t, dir, "{]")
		_, err := startTestCoordinator2(dir, sites, coordOpts{addr: "127.0.0.1:0", ttl: time.Second, batchSize: 2, resume: true})
		var ce *dispatch.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want *dispatch.CheckpointError", err, err)
		}
		if !strings.Contains(ce.Error(), "corrupt") {
			t.Errorf("error %q does not name the corruption", ce)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		dir := t.TempDir()
		manifest(t, dir, `{"version":99}`)
		_, err := startTestCoordinator2(dir, sites, coordOpts{addr: "127.0.0.1:0", ttl: time.Second, batchSize: 2, resume: true})
		var ce *dispatch.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want *dispatch.CheckpointError", err, err)
		}
		if ce.Version != 99 || !strings.Contains(ce.Error(), "version") {
			t.Errorf("error %q does not report the version", ce)
		}
	})
	t.Run("incompatible flags", func(t *testing.T) {
		dir := t.TempDir()
		c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2})
		if err := c.Close(); err != nil { // leaves a valid store
			t.Fatal(err)
		}
		o := newOpts(dir)
		o.addr = "127.0.0.1:0"
		o.ttl = time.Second
		_, err := startTestCoordinator2(dir, testSites(9), o) // changed: another publisher count
		var ce *dispatch.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want *dispatch.CheckpointError", err, err)
		}
		if !strings.Contains(ce.Error(), "× 8 sites), not") || !strings.Contains(ce.Error(), "× 9 sites)") {
			t.Errorf("error %q does not name the mismatched flag", ce)
		}
	})
	// damaged crawls 16 sites once — two commits, two segments — damages
	// what the crawl left, and requires the resumed coordinator to refuse
	// with a *dispatch.CheckpointError that says so — before it serves a
	// batch, not after its workers finish the crawl without the pages the
	// damage took.
	damaged := func(t *testing.T, damage func(t *testing.T, storeDir string), want string) {
		t.Helper()
		dir := t.TempDir()
		sites := testSites(16)
		c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if done, segments := sealedDone(t, filepath.Join(dir, "store")); done != len(sites) || segments < 2 {
			t.Fatalf("the crawl sealed %d done sites in %d segments, want %d in 2 or more", done, segments, len(sites))
		}
		damage(t, filepath.Join(dir, "store"))
		o := newOpts(dir)
		o.addr = "127.0.0.1:0"
		o.ttl = time.Second
		c2, err := startTestCoordinator2(dir, sites, o)
		if err == nil {
			c2.Close()
		}
		var ce *dispatch.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want *dispatch.CheckpointError", err, err)
		}
		if !strings.Contains(ce.Error(), want) {
			t.Errorf("error %q does not say %q", ce, want)
		}
	}
	t.Run("vouched segment missing", func(t *testing.T) {
		damaged(t, func(t *testing.T, storeDir string) {
			if err := os.Remove(filepath.Join(storeDir, "seg-000000.col")); err != nil {
				t.Fatal(err)
			}
		}, "seg-000000.col is damaged: the file is missing")
	})
	t.Run("corrupt spool line", func(t *testing.T) {
		// A sealed page record no longer decodes: a flipped byte in the
		// segment that holds it.
		damaged(t, func(t *testing.T, storeDir string) {
			path := filepath.Join(storeDir, "seg-000000.col")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "sealed segment seg-000000.col is damaged")
	})
}

// TestWorkerFailsFastWhenUnreachable: a worker that can never reach the
// coordinator reports it instead of spinning forever.
func TestWorkerFailsFastWhenUnreachable(t *testing.T) {
	err := RunWorker(context.Background(), WorkerConfig{
		Name: "w0", URL: "ws://127.0.0.1:1/fabric",
		NewRunner: func(cfg wire.CrawlConfig) (BatchRunner, error) {
			return &fakeRunner{pagesPerSite: 1}, nil
		},
		DialRetry: dispatch.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want unreachable", err)
	}
}

// TestFabricSoak runs the full fleet under hostile faultnet profiles on
// its links: timing distortion (slow) and mid-stream connection death
// (flaky). Each worker wraps its dials (WorkerConfig.WrapConn), and a
// wrapped conn's read and write budgets fault both directions of the
// link. The crawl must still drain, converge to the exact canonical
// page set, and leak no goroutines; under flaky, budgets must actually
// be spent, so the soak cannot pass with no fault firing. This is the
// distributed counterpart of the browser-path chaos tests.
func TestFabricSoak(t *testing.T) {
	numSites := 24
	if testing.Short() {
		numSites = 12
	}
	sites := testSites(numSites)
	want := expectedLines(sites, testPages)
	base := runtime.NumGoroutine()
	for _, profile := range []string{"slow", "flaky"} {
		t.Run(profile, func(t *testing.T) {
			dir := t.TempDir()
			before := obs.Default.Snapshot()
			c := startTestCoordinator(t, dir, sites, coordOpts{ttl: 400 * time.Millisecond, batchSize: 3})
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = runTestWorker(ctx, fmt.Sprintf("w%d", i), c.URL(), workerOpts{
						seed: int64(100 + i), delay: time.Millisecond, fault: profile,
					})
				}(i)
			}
			if err := c.Wait(ctx); err != nil {
				t.Fatalf("soak under %q never drained: %v", profile, err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d under %q: %v", i, profile, err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			diffLines(t, "store under "+profile, canonicalStore(t, filepath.Join(dir, "store")), want)
			after := obs.Default.Snapshot()
			delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
			cuts, resets := delta(obs.MFaultCuts), delta(obs.MFaultResets)
			t.Logf("%s: %d faulted conns, %d cuts, %d resets", profile, delta(obs.MFaultConns), cuts, resets)
			if profile == "flaky" && cuts+resets == 0 {
				t.Errorf("no flaky budget was spent: the soak ran without faults")
			}
		})
	}
	checkNoGoroutineLeak(t, base)
}
