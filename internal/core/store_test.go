package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/dispatch"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/webgen"
)

// sealedDone is how many sites the outcome rows of the sealed segments
// of the store at dir mark done: what a resume of it skips.
func sealedDone(t *testing.T, dir string) int {
	t.Helper()
	done := map[string]bool{}
	for _, row := range outcomeRows(t, dir) {
		if row.State == colstore.OutcomeDone {
			done[row.Domain] = true
		}
	}
	return len(done)
}

// outcomeRows reads every outcome row the sealed store at dir holds,
// sorted by (domain, attempt).
func outcomeRows(t *testing.T, dir string) []colstore.Outcome {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	var all []colstore.Outcome
	for _, seg := range segs {
		_, rows, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Domain != all[j].Domain {
			return all[i].Domain < all[j].Domain
		}
		return all[i].Attempt < all[j].Attempt
	})
	return all
}

func storeDatasetBytes(t *testing.T, ds *analysis.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storeDataset is the dataset a cold read-only open of the sealed store
// at dir derives: what cmd/wsquery serves.
func storeDataset(t *testing.T, dir string) *analysis.Dataset {
	t.Helper()
	ro, err := colstore.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := ro.Dataset()
	return ds
}

// TestStoreDifferential runs the pinned bench-crawl world and holds its
// dataset and report to a cold read-only open of the store the crawl
// left behind, byte for byte; the query engine's Tables 1-5 are the
// report's sections.
func TestStoreDifferential(t *testing.T) {
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	stateDir := filepath.Join(t.TempDir(), "state")
	res, err := RunCrawl(context.Background(), benchCrawlOptions(stateDir), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, res.Dataset)
	tables := analysis.Report(res.Dataset)

	// RunCrawl closed the ledger (sealing the store); the on-disk segments
	// alone must reproduce the same dataset and tables for cmd/wsquery.
	ro, err := colstore.OpenRead(filepath.Join(stateDir, "store-crawl0"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), want) {
		t.Error("sealed on-disk store differs from the crawl's dataset")
	}
	if got := analysis.Report(roDS); got != tables {
		t.Errorf("sealed on-disk store renders different tables:\n--- store ---\n%s\n--- crawl ---\n%s", got, tables)
	}
	engine := colstore.NewEngine(ro)
	for n := 1; n <= 5; n++ {
		sec, rows, ok := engine.Table(n)
		if !ok {
			t.Fatalf("query engine has no Table %d", n)
		}
		got := sec.Text(sec.Cut(rows, 0))
		if want := analysis.Lookup("table", fmt.Sprint(n)).Render(roDS); got != want {
			t.Errorf("query engine's Table %d differs from the report's:\n--- engine ---\n%s\n--- report ---\n%s", n, got, want)
		}
	}
}

// TestStoreSealsOncePerCommit gates the store's write cost at the
// study's size (150 publishers × 15 pages): a commit covers max(8, N/128)
// settled sites, fewer pages than SegmentPages, and seals them with
// their outcome rows into one segment — so a crawl writes one segment,
// and one publish's directory sync, per commit that had anything to
// seal, which is what checkpoint.writes counts. Which commits those are
// depends on scheduling (an earlier commit's seal may take a later
// commit's rows, and the later commit then finds nothing); their number
// equals the seals' regardless. A commit is that seal and nothing else: the
// directory syncs are the manifest's and one per seal.
func TestStoreSealsOncePerCommit(t *testing.T) {
	stateDir := t.TempDir()
	opts := benchCrawlOptions(stateDir)
	opts.NumPublishers, opts.PagesPerSite = 150, 15
	spec := CrawlSpec{Name: "seals", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	before := obs.Default.Snapshot()
	if _, err := RunCrawl(context.Background(), opts, spec); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	seals, commits := delta(obs.MStoreSeals), delta(obs.MCheckpointWrites)
	if commits < 8 || seals != commits {
		t.Errorf("%d seals over %d commits that sealed anything, want one per such commit (and at least 8 commits)", seals, commits)
	}
	// The manifest and every segment: one sync each.
	if syncs := delta(obs.MStoreDirSyncs); syncs != 1+seals {
		t.Errorf("%d directory syncs, want %d (manifest + %d seals)", syncs, 1+seals, seals)
	}
	segs, err := filepath.Glob(filepath.Join(stateDir, "store-crawl0", "seg-*.col"))
	if err != nil || int64(len(segs)) != seals {
		t.Errorf("%d segment files (%v), want the %d seals'", len(segs), err, seals)
	}
}

// TestResumeNeedsLocation: a resume reads the interrupted crawl's
// store, so a crawl naming no location cannot resume one.
func TestResumeNeedsLocation(t *testing.T) {
	_, err := RunCrawl(context.Background(), Options{
		Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1,
		Dispatch: &DispatchOptions{Resume: true},
	}, CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57})
	if err == nil {
		t.Fatal("Resume without a location accepted")
	}
}

// TestStudyRefusesStoreDir: a study's four crawls keep four stores, so
// a StoreDir, which names one, is refused before the first crawl starts
// — not after crawl 0 has filled it and crawl 1 finds it taken — and the
// refusal names StateDir, the option that places all four.
func TestStudyRefusesStoreDir(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	_, err := RunStudy(context.Background(), Options{
		Seed: 1, NumPublishers: 6, Workers: 2, PagesPerSite: 1,
		Dispatch: &DispatchOptions{StoreDir: store},
	})
	if err == nil || !strings.Contains(err.Error(), "StateDir") {
		t.Errorf("a study with one StoreDir: err = %v, want a refusal naming StateDir", err)
	}
	if _, serr := os.Stat(store); !os.IsNotExist(serr) {
		t.Errorf("the refused study crawled into %s (%v)", store, serr)
	}
}

// TestFabricCoordinatorNeedsLocation: a coordinator's store must
// outlive the process, so options naming no location for it are refused
// before anything is written — not placed in the working directory, nor
// beside a CheckpointPath, which locates nothing.
func TestFabricCoordinatorNeedsLocation(t *testing.T) {
	opts := Options{Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1}
	spec := CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57}
	dir := t.TempDir()
	for _, d := range []*DispatchOptions{nil, {Resume: true, MaxAttempts: 2}} {
		opts.Dispatch = d
		coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
			Addr: "127.0.0.1:0", CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		})
		if err == nil {
			coord.Close()
			t.Fatalf("a coordinator without a store location started (Dispatch %+v)", d)
		}
	}
	for _, root := range []string{".", dir} {
		path := (&DispatchOptions{StateDir: root}).StorePath(spec)
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("the refused start left %s (%v)", path, serr)
		}
	}
}

// TestResumeRefusesAnotherFaultProfile: a store pins the fault profile
// and fault seed its pages were loaded under, so a resume under another
// profile, another seed or none — in either role, over either role's
// store — is refused as another crawl's state and changes no file; the
// same profile and seed resume it. Without the pin both resumes folded
// two experiments into one dataset.
func TestResumeRefusesAnotherFaultProfile(t *testing.T) {
	opts := Options{Seed: 4242, NumPublishers: 12, Workers: 2, PagesPerSite: 2, FaultProfile: "flaky", FaultSeed: 3}
	spec := CrawlSpec{Name: "faults", Era: webgen.EraPrePatch, CrawlIndex: 1, BrowserVersion: 57}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	local := func(o Options, store string, resume bool) error {
		o.Dispatch = &DispatchOptions{StoreDir: store, Resume: resume}
		_, err := RunCrawl(ctx, o, spec)
		return err
	}
	fabricRole := func(o Options, store string, resume bool) error {
		o.Dispatch = &DispatchOptions{StoreDir: store, Resume: resume}
		coord, err := StartFabricCoordinator(o, spec, FabricCoordinatorOptions{
			Addr: "127.0.0.1:0", BatchSize: 4,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		runFabricWorkers(ctx, t, coord, 1)
		if _, _, err := coord.Finalize(FabricDatasetMeta(spec)); err != nil {
			return err
		}
		return coord.Close()
	}
	roles := []struct {
		name string
		run  func(Options, string, bool) error
	}{{"local", local}, {"fabric", fabricRole}}
	for _, writer := range roles {
		store := filepath.Join(t.TempDir(), "store-crawl1")
		if err := writer.run(opts, store, false); err != nil {
			t.Fatal(err)
		}
		before, _ := storeDigest(t, store)
		for _, resumer := range roles {
			for _, other := range []struct{ profile string }{{"torn"}, {""}} {
				o := opts
				o.FaultProfile = other.profile
				checkForeign(t, resumer.run(o, store, true), fmt.Sprintf("%s store, %s resume under %q", writer.name, resumer.name, other.profile))
			}
			o := opts
			o.FaultSeed = 4
			checkForeign(t, resumer.run(o, store, true), fmt.Sprintf("%s store, %s resume at fault seed 4", writer.name, resumer.name))
			if after, _ := storeDigest(t, store); after != before {
				t.Fatalf("%s store: a refused %s resume changed its files", writer.name, resumer.name)
			}
		}
		for _, resumer := range roles {
			if err := resumer.run(opts, store, true); err != nil {
				t.Errorf("%s store: a %s resume under the same profile and seed: %v", writer.name, resumer.name, err)
			}
		}
	}
}

// checkForeign requires err to refuse a store as another crawl's.
func checkForeign(t *testing.T, err error, what string) {
	t.Helper()
	var ce *dispatch.CheckpointError
	if !errors.As(err, &ce) || !strings.Contains(ce.Hint, "original crawl") || !strings.Contains(ce.Reason, "fault") {
		t.Errorf("%s: %v, want the store refused as another crawl's", what, err)
	}
}

// runFabricWorkers attaches n production workers to coord and waits for
// the crawl to drain and every worker to exit cleanly.
func runFabricWorkers(ctx context.Context, t *testing.T, coord *fabric.Coordinator, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunFabricWorker(ctx, FabricWorkerOptions{
				Name:    fmt.Sprintf("w%d", i),
				URL:     coord.URL(),
				Workers: 2,
				Seed:    int64(i + 1),
			})
		}(i)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator never drained: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestFabricStoreDifferential streams the pinned bench-crawl world
// through a coordinator with two real-pipeline workers, located as bench
// locates one: the dataset Finalize derives from the coordinator's store
// — store-crawl0 under Dispatch.StateDir, beside the CheckpointPath at
// which no file is written — must match a cold read-only open of that
// store byte for byte, as must the live store the query API serves.
func TestFabricStoreDifferential(t *testing.T) {
	opts := Options{
		Seed:          benchCrawlSeed,
		NumPublishers: benchCrawlSites,
		Workers:       benchCrawlWorkers,
		PagesPerSite:  benchCrawlPages,
	}
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	dir := t.TempDir()
	opts.Dispatch = &DispatchOptions{StateDir: dir}

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

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runFabricWorkers(ctx, t, coord, 2)

	// Finalize derives the dataset from the store's fold; Close commits
	// the store's tail.
	storeDS, storeStats, err := coord.Finalize(FabricDatasetMeta(spec))
	if err != nil {
		t.Fatal(err)
	}
	got := storeDatasetBytes(t, storeDS)
	liveDS, liveStats := coord.Store().Dataset()
	if !bytes.Equal(storeDatasetBytes(t, liveDS), got) || liveStats.Pages != storeStats.Pages {
		t.Error("the live store the query API serves differs from the finalized dataset")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	cold := storeDataset(t, filepath.Join(dir, "store-crawl0"))
	if !bytes.Equal(storeDatasetBytes(t, cold), got) {
		t.Error("sealed fabric store differs from the coordinator's dataset")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Errorf("the coordinator wrote at CheckpointPath (stat: %v)", err)
	}
	if analysis.Report(cold) != analysis.Report(storeDS) {
		t.Error("sealed fabric store renders different tables than the coordinator's dataset")
	}
}
