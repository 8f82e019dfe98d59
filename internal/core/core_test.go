package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dispatch"
	"repro/internal/webgen"
)

// smallOpts keeps integration tests fast.
func smallOpts() Options {
	return Options{Seed: 77, NumPublishers: 60, Workers: 8, PagesPerSite: 4}
}

// TestRunCrawlEndToEnd crawls with no location: the crawl's durable
// state lives in a temporary directory that RunCrawl removes, and the
// per-site outcome is reported all the same.
func TestRunCrawlEndToEnd(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	res, err := RunCrawl(context.Background(), smallOpts(), CrawlSpec{
		Name: "test-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57,
	})
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("crawl left %d entries in the temp dir (first: %s)", len(left), left[0].Name())
	}
	if p := res.Dispatch.Progress; p.Total == 0 || p.Done+p.Failed != p.Total {
		t.Errorf("dispatch progress %+v: want every site settled", p)
	}
	d := res.Dataset
	if len(d.Sites) == 0 {
		t.Fatal("no sites crawled")
	}
	if res.Stats.Pages == 0 {
		t.Fatal("no pages crawled")
	}
	if len(d.AADomains) == 0 {
		t.Fatal("labeler derived no A&A domains")
	}
	// Named A&A domains must be derivable from the crawl itself.
	aa := d.AASet()
	for _, dom := range []string{"doubleclick.net", "google-analytics.com"} {
		if !aa[dom] {
			t.Errorf("%s missing from derived D'", dom)
		}
	}
	// Benign CDNs stay out.
	for _, dom := range []string{"jqcdn-static.com", "mostlyclean-cdn.net"} {
		if aa[dom] {
			t.Errorf("%s wrongly in D'", dom)
		}
	}
	if len(d.HTTPByDomain) == 0 {
		t.Error("no HTTP aggregates")
	}
}

// TestRunCrawlDeterministic: a crawl is a pure function of (Options,
// CrawlSpec) — eight workers racing over the site queue still serialize
// to the same bytes, because browsers are seeded per site and the fold's
// finalize imposes the canonical order.
func TestRunCrawlDeterministic(t *testing.T) {
	spec := CrawlSpec{Name: "det", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57}
	run := func() []byte {
		res, err := RunCrawl(context.Background(), smallOpts(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Dataset.Sockets) == 0 {
			t.Fatal("crawl observed no sockets")
		}
		return storeDatasetBytes(t, res.Dataset)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("same options, different datasets (%d vs %d bytes)", len(a), len(b))
	}
}

// TestEntryPointsAgree: the same (Options, CrawlSpec) through RunCrawl
// and through a fabric coordinator with two production workers yields
// one dataset, byte for byte — both run the same page plane.
func TestEntryPointsAgree(t *testing.T) {
	opts := Options{Seed: 4242, NumPublishers: 18, Workers: 3, PagesPerSite: 3}
	spec := CrawlSpec{Name: "agree", Era: webgen.EraPostPatch, CrawlIndex: 2, BrowserVersion: 58}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dispatched := opts
	dispatched.Dispatch = &DispatchOptions{StateDir: filepath.Join(t.TempDir(), "state")}
	res, err := RunCrawl(ctx, dispatched, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, res.Dataset)
	if len(res.Dataset.Sockets) == 0 || len(res.Dataset.AADomains) == 0 {
		t.Fatal("world too quiet to compare entry points")
	}

	dir := t.TempDir()
	coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
		Addr:           "127.0.0.1:0",
		BatchSize:      4,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	runFabricWorkers(ctx, t, coord, 2)
	ds, _, err := coord.Finalize(FabricDatasetMeta(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got := storeDatasetBytes(t, ds); !bytes.Equal(got, want) {
		t.Errorf("fabric dataset (%d bytes) differs from the dispatched one (%d bytes)", len(got), len(want))
	}
}

// TestResumeAcrossRoles: a local crawl and a fabric coordinator write
// one checkpoint format with one header, so each resumes the other's
// interrupted crawl and converges on the uninterrupted dataset byte for
// byte. Crawl 1, not 0, so the per-crawl seed is part of what must agree.
func TestResumeAcrossRoles(t *testing.T) {
	opts := Options{Seed: 4242, NumPublishers: 40, Workers: 1, PagesPerSite: 3}
	spec := CrawlSpec{Name: "roles", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ref, err := RunCrawl(ctx, opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, ref.Dataset)
	total := len(FabricSites(opts, spec))

	// Each interruption stops its role once a few sites are done and
	// leaves a checkpoint behind; each resume finishes the crawl in the
	// other role and reports how many sites the checkpoint held.
	fabricUntil := func(t *testing.T, cp string, resume, interrupt bool) ([]byte, int) {
		coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
			Addr: "127.0.0.1:0", BatchSize: 2, CheckpointPath: cp, Resume: resume, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		if !interrupt {
			runFabricWorkers(ctx, t, coord, 2)
			ds, _, err := coord.Finalize(FabricDatasetMeta(spec))
			if err != nil {
				t.Fatal(err)
			}
			return storeDatasetBytes(t, ds), coord.ResumedDone()
		}
		wctx, stop := context.WithCancel(ctx)
		werr := make(chan error, 1)
		go func() {
			werr <- RunFabricWorker(wctx, FabricWorkerOptions{Name: "w0", URL: coord.URL(), Workers: 1, Seed: 1})
		}()
		for coord.Progress().Done < 3 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		stop()
		<-werr
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		return nil, 0
	}
	localUntil := func(t *testing.T, cp string, resume, interrupt bool) ([]byte, int) {
		o := opts
		o.Dispatch = &DispatchOptions{CheckpointPath: cp, Resume: resume}
		if !interrupt {
			res, err := RunCrawl(ctx, o, spec)
			if err != nil {
				t.Fatal(err)
			}
			return storeDatasetBytes(t, res.Dataset), res.Dispatch.ResumedDone
		}
		lctx, stop := context.WithCancel(ctx)
		go func() {
			defer stop()
			for lctx.Err() == nil {
				if c, err := dispatch.LoadCheckpoint(cp); err == nil && len(c.Done) > 0 {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		if _, err := RunCrawl(lctx, o, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted local crawl returned %v, want it cancelled", err)
		}
		return nil, 0
	}
	type role func(t *testing.T, cp string, resume, interrupt bool) ([]byte, int)
	for _, tc := range []struct {
		name              string
		interrupt, resume role
	}{
		{"fabric interrupted, local resumes", fabricUntil, localUntil},
		{"local interrupted, fabric resumes", localUntil, fabricUntil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cp := filepath.Join(dir, "checkpoint.json")
			tc.interrupt(t, cp, false, true)
			got, resumed := tc.resume(t, cp, true, false)
			t.Logf("the resume took over %d of %d sites done", resumed, total)
			if resumed == 0 || resumed >= total {
				t.Errorf("the resume took over %d of %d sites done; want an interrupted crawl", resumed, total)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed dataset (%d bytes) differs from the uninterrupted one (%d bytes)", len(got), len(want))
			}
		})
	}
}

func TestStudyPrePostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	opts := Options{Seed: 77, NumPublishers: 150, Workers: 8, PagesPerSite: 8}
	study, err := RunStudy(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := study.Datasets()
	if len(ds) != 4 {
		t.Fatalf("datasets = %d", len(ds))
	}
	rows := analysis.Table1(ds...)

	// The paper's headline shape: the number of unique A&A initiators
	// collapses after the Chrome 58 patch while receivers stay stable.
	preInit := rows[0].UniqueAAInitiators
	postInit := rows[3].UniqueAAInitiators
	if preInit <= postInit {
		t.Errorf("unique A&A initiators did not drop: pre=%d post=%d", preInit, postInit)
	}
	if float64(preInit) < 1.5*float64(postInit) {
		t.Errorf("initiator drop too small: pre=%d post=%d", preInit, postInit)
	}
	recvDelta := rows[0].UniqueAAReceivers - rows[3].UniqueAAReceivers
	if recvDelta < -4 || recvDelta > 4 {
		t.Errorf("receiver count unstable: pre=%d post=%d", rows[0].UniqueAAReceivers, rows[3].UniqueAAReceivers)
	}

	// WebSocket usage is rare but majority-A&A.
	for _, r := range rows {
		if r.PctSitesWithSockets > 15 {
			t.Errorf("%s: %f%% sites with sockets (too many)", r.Crawl, r.PctSitesWithSockets)
		}
		if r.Sockets > 0 && r.PctAAReceived < 30 {
			t.Errorf("%s: only %f%% A&A receivers", r.Crawl, r.PctAAReceived)
		}
	}

	// DoubleClick must be among the disappeared initiators.
	churn := analysis.ComputeChurn(ds[0], ds[3], analysis.UnionAASet(ds...))
	found := false
	for _, dom := range churn.Disappeared {
		if dom == "doubleclick.net" || dom == "facebook.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("neither doubleclick nor facebook disappeared: %v", churn.Disappeared)
	}

	// The report renders all sections.
	report := study.Report()
	for _, want := range []string{"Table 1", "Table 5", "Figure 3", "Figure 4", "Overview", "churn"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	opts := withDefaults(Options{})
	def := DefaultOptions()
	if opts.Seed != def.Seed || opts.NumPublishers != def.NumPublishers || opts.Workers != def.Workers {
		t.Errorf("defaults not applied: %+v", opts)
	}
	custom := withDefaults(Options{Seed: 5, NumPublishers: 10, Workers: 2, PagesPerSite: 3})
	if custom.Seed != 5 || custom.NumPublishers != 10 {
		t.Error("explicit options overridden")
	}
}

func TestDefaultCrawlsMatchPaper(t *testing.T) {
	crawls := DefaultCrawls()
	if len(crawls) != 4 {
		t.Fatalf("crawls = %d", len(crawls))
	}
	if crawls[0].Era != webgen.EraPrePatch || crawls[1].Era != webgen.EraPrePatch {
		t.Error("first two crawls must be pre-patch")
	}
	if crawls[2].Era != webgen.EraPostPatch || crawls[3].Era != webgen.EraPostPatch {
		t.Error("last two crawls must be post-patch")
	}
	if crawls[0].BrowserVersion >= 58 || crawls[2].BrowserVersion < 58 {
		t.Error("browser versions inconsistent with the patch timeline")
	}
}
