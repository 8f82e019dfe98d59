package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
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
// and through a fabric coordinator with one and with two production
// workers yields one dataset, byte for byte, and the same outcome rows
// for each site — both run the same page plane, and the coordinator
// sends its workers the crawl's fault profile. Every role must fault
// the same number of connections (fault.conns, fault.armed), none
// without a profile; and flaky, which cuts connections, must change
// the dataset. torn cannot: it only re-segments writes, which every
// reader reassembles, so its dataset is the fault-free one and only
// the counters show it reached the pages.
func TestEntryPointsAgree(t *testing.T) {
	spec := CrawlSpec{Name: "agree", Era: webgen.EraPostPatch, CrawlIndex: 2, BrowserVersion: 58}
	var clean []byte
	for _, row := range []struct {
		profile      string
		changesBytes bool
	}{{"", false}, {"flaky", true}, {"torn", false}} {
		profile := row.profile
		name := profile
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			if profile != "" && testing.Short() {
				t.Skip("three faulted crawls")
			}
			opts := Options{Seed: 4242, NumPublishers: 18, Workers: 3, PagesPerSite: 3, FaultProfile: profile, FaultSeed: 3}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			local := opts
			local.Dispatch = &DispatchOptions{StoreDir: filepath.Join(t.TempDir(), "local")}
			faults := faultCounts()
			res, err := RunCrawl(ctx, local, spec)
			if err != nil {
				t.Fatal(err)
			}
			wantFaults := faults()
			want, wantRows := storeDatasetBytes(t, res.Dataset), outcomeRows(t, local.Dispatch.StoreDir)
			if len(res.Dataset.Sockets) == 0 || len(res.Dataset.AADomains) == 0 {
				t.Fatal("world too quiet to compare entry points")
			}
			p := res.Dispatch.Progress
			t.Logf("local: %d of %d sites done, %d failed, %d retries, %d outcome rows; faulted %v",
				p.Done, p.Total, p.Failed, p.Retries, len(wantRows), wantFaults)
			if (wantFaults[0] > 0) != (profile != "") {
				t.Errorf("the local crawl faulted %v connections under profile %q", wantFaults, profile)
			}

			for _, workers := range []int{1, 2} {
				store := filepath.Join(t.TempDir(), "store")
				faults := faultCounts()
				coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
					Addr:      "127.0.0.1:0",
					BatchSize: 4,
					StoreDir:  store,
					Logf:      t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				runFabricWorkers(ctx, t, coord, workers)
				ds, _, err := coord.Finalize(FabricDatasetMeta(spec))
				if err != nil {
					t.Fatal(err)
				}
				if err := coord.Close(); err != nil {
					t.Fatal(err)
				}
				if got := faults(); got != wantFaults {
					t.Errorf("%d-worker fabric crawl faulted %v connections, the local one %v", workers, got, wantFaults)
				}
				if got := storeDatasetBytes(t, ds); !bytes.Equal(got, want) {
					t.Errorf("%d-worker fabric dataset (%d bytes) differs from the local one (%d bytes)", workers, len(got), len(want))
				}
				if got := outcomeRows(t, store); !reflect.DeepEqual(got, wantRows) {
					t.Errorf("%d-worker fabric outcome rows differ from the local ones:\n got %v\nwant %v", workers, got, wantRows)
				}
			}
			switch {
			case profile == "":
				clean = want
			case bytes.Equal(want, clean) == row.changesBytes:
				t.Errorf("the dataset under %q equals the fault-free one: %v, want %v", profile, row.changesBytes, !row.changesBytes)
			}
		})
	}
}

// faultCounts starts counting faulted connections; the function it
// returns reads how many were faulted ([0], fault.conns) and how many of
// those drew a byte budget ([1], fault.armed) since.
func faultCounts() func() [2]int64 {
	before := obs.Default.Snapshot()
	return func() [2]int64 {
		after := obs.Default.Snapshot()
		return [2]int64{
			after.Counters[obs.MFaultConns] - before.Counters[obs.MFaultConns],
			after.Counters[obs.MFaultArmed] - before.Counters[obs.MFaultArmed],
		}
	}
}

// TestResumeAcrossRoles: a local crawl and a fabric coordinator keep
// one store format that pins one identity, so each resumes the other's
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
	// leaves its store behind; each resume finishes the crawl in the
	// other role and reports how many sites the store's rows marked done.
	fabricUntil := func(t *testing.T, store string, resume, interrupt bool) ([]byte, int) {
		coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
			Addr: "127.0.0.1:0", BatchSize: 2, StoreDir: store, Resume: resume, Logf: t.Logf,
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
	localUntil := func(t *testing.T, store string, resume, interrupt bool) ([]byte, int) {
		o := opts
		o.Dispatch = &DispatchOptions{StoreDir: store, Resume: resume}
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
				if sealedDone(t, store) > 0 {
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
	type role func(t *testing.T, store string, resume, interrupt bool) ([]byte, int)
	for _, tc := range []struct {
		name              string
		interrupt, resume role
	}{
		{"fabric interrupted, local resumes", fabricUntil, localUntil},
		{"local interrupted, fabric resumes", localUntil, fabricUntil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store-crawl1")
			tc.interrupt(t, store, false, true)
			got, resumed := tc.resume(t, store, true, false)
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
