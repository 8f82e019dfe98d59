package fabric

import (
	"context"
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

	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
	"repro/internal/faultnet"
)

// fakeRunner is a deterministic BatchRunner: every site yields
// pagesPerSite fixed lines, so the canonical spool content is a pure
// function of the site list — exactly the property the real pipeline
// has — without paying for real page loads in protocol tests.
type fakeRunner struct {
	pagesPerSite int
	pageDelay    time.Duration
	failSites    map[string]string
}

func (r *fakeRunner) RunBatch(ctx context.Context, b wire.Batch, emit func(string, []byte) error) (int, map[string]string, error) {
	pages := 0
	var failed map[string]string
	for _, s := range b.Sites {
		if msg, ok := r.failSites[s.Domain]; ok {
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
			if err := emit(s.Domain, []byte(fakeLine(s, p))); err != nil {
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

// fakeLine is a minimal but real spool line: the coordinator's ledger
// decodes every streamed line, and distinct pageUrls keep a site's pages
// distinct under the live fold.
func fakeLine(s wire.Site, page int) string {
	return fmt.Sprintf(`{"site":%q,"rank":%d,"pageUrl":"http://%s/p%d"}`, s.Domain, s.Rank, s.Domain, page)
}

func testSites(n int) []crawler.Site {
	sites := make([]crawler.Site, n)
	for i := range sites {
		sites[i] = crawler.Site{Domain: fmt.Sprintf("site%03d.com", i), Rank: i + 1}
	}
	return sites
}

// expectedLines is the canonical spool content for a full crawl of
// sites: every page line exactly once, sorted.
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

// canonicalSpool reads every spool shard and returns the deduplicated,
// sorted line set — the same canonicalization the real merge applies.
func canonicalSpool(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				seen[line] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for line := range seen {
		out = append(out, line)
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
	addr      string
	ttl       time.Duration
	batchSize int
	resume    bool
	store     bool
	fault     string
	faultSeed int64
	logf      func(format string, args ...any)
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
	seed  int64
	delay time.Duration
	fault string
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
			return &fakeRunner{pagesPerSite: cfg.PagesPerSite, pageDelay: o.delay}, nil
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

// TestMakeBatchesDeterministic: same inputs, same plan; the plan covers
// every site exactly once; different seeds shuffle membership.
func TestMakeBatchesDeterministic(t *testing.T) {
	sites := testSites(37)
	a := MakeBatches(sites, 5, 42)
	b := MakeBatches(sites, 5, 42)
	if len(a) != 8 {
		t.Fatalf("37 sites / size 5 = %d batches, want 8", len(a))
	}
	seen := map[string]int{}
	for i, batch := range a {
		if batch.ID != BatchID(i) || batch.Seq != i {
			t.Errorf("batch %d: ID %q Seq %d", i, batch.ID, batch.Seq)
		}
		if batch.ID != b[i].ID || len(batch.Sites) != len(b[i].Sites) {
			t.Fatalf("same seed produced different plans at %d", i)
		}
		for j, s := range batch.Sites {
			if s != b[i].Sites[j] {
				t.Fatalf("same seed produced different membership: %v vs %v", s, b[i].Sites[j])
			}
			seen[s.Domain]++
		}
	}
	if len(seen) != len(sites) {
		t.Errorf("plan covers %d distinct sites, want %d", len(seen), len(sites))
	}
	for dom, n := range seen {
		if n != 1 {
			t.Errorf("site %s appears %d times", dom, n)
		}
	}
	c := MakeBatches(sites, 5, 43)
	same := true
	for i := range a {
		for j := range a[i].Sites {
			if a[i].Sites[j] != c[i].Sites[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical membership")
	}
}

// TestFabricConvergesAcrossWorkerCounts is the acceptance keystone in
// process form: 1, 2, and 4 workers produce the same canonical spool
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
			diffLines(t, "spool", canonicalSpool(t, filepath.Join(dir, "spool")), want)
		})
	}
}

// TestFabricFailedSitesPropagate: per-site failures inside a batch
// reach the coordinator without failing the batch.
func TestFabricFailedSitesPropagate(t *testing.T) {
	sites := testSites(12)
	dir := t.TempDir()
	c := startTestCoordinator(t, dir, sites, coordOpts{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Name: "w0", URL: c.URL(),
			NewRunner: func(cfg wire.CrawlConfig) (BatchRunner, error) {
				return &fakeRunner{
					pagesPerSite: cfg.PagesPerSite,
					failSites:    map[string]string{"site003.com": "homepage 500"},
				}, nil
			},
			Seed: 1,
		})
	}()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	failed := c.FailedSites()
	if failed["site003.com"] != "homepage 500" {
		t.Errorf("failed sites = %v, want site003.com recorded", failed)
	}
}

// TestFabricSurvivesWorkerKill: killing a worker mid-batch loses
// nothing — the lease expires, the batch is reclaimed and re-granted,
// and the canonical spool still matches a clean run exactly.
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
	diffLines(t, "spool", canonicalSpool(t, filepath.Join(dir, "spool")), want)
}

// TestFabricSurvivesCoordinatorRestart: the coordinator dies mid-crawl
// and comes back with -resume semantics on the same address; the worker
// rides the outage out on dial retry, completed batches are not re-run,
// and the final spool is canonical-identical to a clean run.
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
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	diffLines(t, "spool", canonicalSpool(t, filepath.Join(dir, "spool")), want)
}

// startTestCoordinator2 is startTestCoordinator without the defaults
// and the t.Fatal, so restart loops can retry transient bind failures.
func startTestCoordinator2(dir string, sites []crawler.Site, o coordOpts) (*Coordinator, error) {
	var fault faultnet.Profile
	if o.fault != "" {
		p, ok := faultnet.ByName(o.fault)
		if !ok {
			return nil, fmt.Errorf("unknown fault profile %q", o.fault)
		}
		fault = p
	}
	cfg := CoordinatorConfig{
		Crawl:          testCrawlConfig(len(sites)),
		Sites:          sites,
		BatchSize:      o.batchSize,
		NumShards:      4,
		LeaseTTL:       o.ttl,
		Retry:          dispatch.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		SpoolDir:       filepath.Join(dir, "spool"),
		Resume:         o.resume,
		Fault:          fault,
		FaultSeed:      o.faultSeed,
		Logf:           o.logf,
	}
	if o.store {
		cfg.StoreDir = filepath.Join(dir, "store")
	}
	return StartCoordinator(o.addr, cfg)
}

// TestCoordinatorResumeFailsFast: corrupt, wrong-version, and
// incompatible checkpoints are refused before any listener opens, with
// the versioned, actionable error the single-process path uses.
func TestCoordinatorResumeFailsFast(t *testing.T) {
	sites := testSites(8)
	newOpts := func(dir string) coordOpts { return coordOpts{batchSize: 2, resume: true} }

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{]"), 0o644); err != nil {
			t.Fatal(err)
		}
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
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte(`{"version":99}`), 0o644); err != nil {
			t.Fatal(err)
		}
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
		if err := c.Close(); err != nil { // writes a valid checkpoint
			t.Fatal(err)
		}
		o := newOpts(dir)
		o.addr = "127.0.0.1:0"
		o.ttl = time.Second
		o.batchSize = 4 // changed: different batch plan
		_, err := startTestCoordinator2(dir, sites, o)
		var ce *dispatch.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want *dispatch.CheckpointError", err, err)
		}
		if !strings.Contains(ce.Error(), "batch size") {
			t.Errorf("error %q does not name the mismatched flag", ce)
		}
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
// both sides of the wire: timing distortion (slow) and mid-stream
// connection death (flaky). The crawl must still drain, converge to the
// exact canonical page set, and leak no goroutines. This is the
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
			c := startTestCoordinator(t, dir, sites, coordOpts{
				ttl: 400 * time.Millisecond, batchSize: 3,
				fault: profile, faultSeed: 7,
			})
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
			diffLines(t, "spool under "+profile, canonicalSpool(t, filepath.Join(dir, "spool")), want)
		})
	}
	checkNoGoroutineLeak(t, base)
}
