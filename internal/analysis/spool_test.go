package analysis

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

func samplePageRecord() *PageRecord {
	return &PageRecord{
		Site: "pub.com", Rank: 7, PageURL: "http://pub.com/p",
		Sockets: []SocketRecord{{
			Site: "pub.com", Rank: 7, PageURL: "http://pub.com/p",
			URL: "ws://tracker.com/ws", ReceiverDomain: "tracker.com",
			InitiatorDomain: "tracker.com",
			ChainDomains:    []string{"pub.com", "tracker.com"},
			CrossOrigin:     true, HandshakeOK: true,
			FramesSent: 2, FramesRecv: 1,
		}},
		HTTP: map[string]*DomainTraffic{
			"cdn.com": {Domain: "cdn.com", Requests: 4, SentItems: map[string]int{"user-agent": 4}},
		},
		AAObs:    map[string]int{"tracker.com": 1},
		NonAAObs: map[string]int{"cdn.com": 4},
		CDNObs:   map[string]int{"d1abc.cloudfront.net": 1},
	}
}

func TestSpoolRecordRoundTrip(t *testing.T) {
	rec := samplePageRecord()
	var buf bytes.Buffer
	if err := EncodeSpoolRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	if bytes.ContainsRune(line, '\n') {
		t.Fatal("encoded record spans multiple lines")
	}
	got, err := DecodeSpoolLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", rec, got)
	}

	// Deterministic bytes: encoding the same record twice is identical.
	var buf2 bytes.Buffer
	EncodeSpoolRecord(&buf2, samplePageRecord())
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("encoding is not deterministic")
	}
}

func writeShard(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard-000.jsonl")
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func encodeLine(t *testing.T, rec *PageRecord) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSpoolRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestMergeShardsDedupesByPage(t *testing.T) {
	first := samplePageRecord()
	dup := samplePageRecord()
	dup.HTTP["cdn.com"].Requests = 999 // must lose: first occurrence wins
	other := samplePageRecord()
	other.PageURL = "http://pub.com/q"

	path := writeShard(t,
		encodeLine(t, first), encodeLine(t, dup), encodeLine(t, other))
	ds, stats, err := MergeShards(DatasetMeta{Name: "c"}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 2 || stats.Duplicates != 1 {
		t.Errorf("stats = %+v, want 2 pages / 1 duplicate", stats)
	}
	if ds.HTTPByDomain["cdn.com"].Requests != 8 {
		t.Errorf("requests = %d, want 8 (first record kept, duplicate dropped)",
			ds.HTTPByDomain["cdn.com"].Requests)
	}
	if len(ds.Sites) != 1 || ds.Sites[0].Pages != 2 || ds.Sites[0].Sockets != 2 {
		t.Errorf("sites = %+v", ds.Sites)
	}
}

func TestMergeShardsToleratesTornFinalLine(t *testing.T) {
	path := writeShard(t,
		encodeLine(t, samplePageRecord()),
		`{"site":"pub.com","rank":7,"pageUrl":"http://pub.com/tor`) // no newline
	ds, stats, err := MergeShards(DatasetMeta{Name: "c"}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 1 || stats.Truncated != 1 {
		t.Errorf("stats = %+v, want 1 page / 1 truncated", stats)
	}
	if len(ds.Sites) != 1 {
		t.Errorf("sites = %+v", ds.Sites)
	}
}

func TestMergeShardsRejectsInteriorCorruption(t *testing.T) {
	path := writeShard(t,
		"{corrupt\n",
		encodeLine(t, samplePageRecord()))
	if _, _, err := MergeShards(DatasetMeta{Name: "c"}, []string{path}); err == nil {
		t.Error("interior corruption accepted")
	}
}

// TestMergeShardsRejectsCorruptTerminatedFinalLine: only an
// *unterminated* trailing fragment can be a crash-torn append; a final
// line that is newline-terminated but undecodable was written complete
// and is corruption — it must fail the merge like any interior line,
// not be silently skipped just because nothing follows it.
func TestMergeShardsRejectsCorruptTerminatedFinalLine(t *testing.T) {
	path := writeShard(t,
		encodeLine(t, samplePageRecord()),
		"{corrupt\n") // terminated: a complete, corrupt write
	_, stats, err := MergeShards(DatasetMeta{Name: "c"}, []string{path})
	if err == nil {
		t.Fatalf("corrupt terminated final line accepted (stats %+v)", stats)
	}
	if stats.Truncated != 0 {
		t.Errorf("corruption misreported as a torn tail: %+v", stats)
	}
}

func TestMergeShardsDerivesAADomainsFromDeltas(t *testing.T) {
	// tracker.com: 2 A&A obs vs 10 non ⇒ 2 >= 0.1*10, in D′.
	// almost.com: 1 A&A obs vs 11 non ⇒ 1 < 1.1, out.
	// quiet.com: only non-A&A obs, out.
	recs := []*PageRecord{
		{Site: "a.com", Rank: 1, PageURL: "http://a.com/",
			AAObs:    map[string]int{"tracker.com": 2, "almost.com": 1},
			NonAAObs: map[string]int{"tracker.com": 10, "almost.com": 11, "quiet.com": 5}},
	}
	path := writeShard(t, encodeLine(t, recs[0]))
	ds, _, err := MergeShards(DatasetMeta{Name: "c"}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"tracker.com"}; !reflect.DeepEqual(ds.AADomains, want) {
		t.Errorf("AADomains = %v, want %v", ds.AADomains, want)
	}
}

// TestFolderAndMergeShardsAgree crawls a small synthetic world once and
// takes its page records down both aggregation paths — folded live as
// in-memory and fresh dispatched crawls do, and Recorder→spool→
// MergeShards as resumed crawls and the fabric coordinator do — and
// requires byte-identical datasets: same site summaries, canonical
// socket order, HTTP aggregates, and the same derived D′.
func TestFolderAndMergeShardsAgree(t *testing.T) {
	w := webgen.NewWorld(webgen.Config{Seed: 31, NumPublishers: 12, Era: webgen.EraPrePatch})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lab := labeler.New(
		filterlist.Parse("easylist", w.EasyListText()),
		filterlist.Parse("easyprivacy", w.EasyPrivacyText()),
	)
	lab.SetCDNMap(w.CloudfrontMap())
	recorder := NewRecorder(lab)
	meta := DatasetMeta{Name: "c", Era: "pre-patch"}
	folder := NewFolder(meta)
	spool := filepath.Join(t.TempDir(), "shard-000.jsonl")
	f, err := os.Create(spool)
	if err != nil {
		t.Fatal(err)
	}

	sites := make([]crawler.Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	var mu sync.Mutex // serializes the shard file across crawl workers
	cfg := crawler.Config{
		Workers: 3, PagesPerSite: 3, Seed: 5,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(5, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			rec, err := recorder.RecordPage(site, pageURL, res)
			if err != nil {
				t.Errorf("RecordPage(%s): %v", pageURL, err)
				return
			}
			if !folder.Fold(rec) {
				t.Errorf("Fold(%s): duplicate on a single pass", pageURL)
			}
			mu.Lock()
			defer mu.Unlock()
			if err := EncodeSpoolRecord(f, rec); err != nil {
				t.Errorf("spool: %v", err)
			}
		},
	}
	if _, err := crawler.Crawl(context.Background(), sites, cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	live, liveStats := folder.Finalize()
	merged, stats, err := MergeShards(meta, []string{spool})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates != 0 || stats.Truncated != 0 {
		t.Errorf("merge stats = %+v", stats)
	}
	if liveStats.Pages != stats.Pages || stats.Pages == 0 {
		t.Errorf("folded %d pages, merged %d", liveStats.Pages, stats.Pages)
	}
	if len(live.Sockets) == 0 || len(live.AADomains) == 0 {
		t.Fatalf("world too quiet to compare: %d sockets, %d A&A domains", len(live.Sockets), len(live.AADomains))
	}
	var a, b bytes.Buffer
	if err := live.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("folded dataset (%d bytes) differs from merged dataset (%d bytes)", a.Len(), b.Len())
	}
}

// pooledRecordBudget is the ceiling on heap allocations per page for a
// pooled Recorder once its scratch is warm: ≈ 37 on the test's pages,
// against ≈ 148 unpooled. A RecordPage that stopped returning its
// scratch to the pool rebuilds the arena builder, its maps and the walk
// buffers every page (≈ 79) and fails here; the whole-crawl
// TestPageAllocBudget in core has the headroom to miss that.
const pooledRecordBudget = 45

// TestRecorderPooledSteadyState records a fixed set of crawled pages
// again and again through one pooled Recorder and holds the per-page
// allocation count to pooledRecordBudget.
func TestRecorderPooledSteadyState(t *testing.T) {
	skipIfRace(t)
	w := webgen.NewWorld(webgen.Config{Seed: 31, NumPublishers: 6, Era: webgen.EraPrePatch})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lab := labeler.New(
		filterlist.Parse("easylist", w.EasyListText()),
		filterlist.Parse("easyprivacy", w.EasyPrivacyText()),
	)
	lab.SetCDNMap(w.CloudfrontMap())

	type page struct {
		site crawler.Site
		url  string
		res  *browser.PageResult
	}
	var mu sync.Mutex
	var pages []page
	sites := make([]crawler.Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := crawler.Config{
		Workers: 1, PagesPerSite: 3, Seed: 5,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(5, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			mu.Lock()
			defer mu.Unlock()
			pages = append(pages, page{site, pageURL, res})
		},
	}
	if _, err := crawler.Crawl(context.Background(), sites, cfg); err != nil {
		t.Fatal(err)
	}

	perPage := func(r *Recorder) float64 {
		record := func() {
			for _, p := range pages {
				if _, err := r.RecordPage(p.site, p.url, p.res); err != nil {
					t.Fatal(err)
				}
			}
		}
		record() // warm the scratch
		return testing.AllocsPerRun(5, record) / float64(len(pages))
	}
	pooled := perPage(&Recorder{Label: lab, Pooled: true})
	unpooled := perPage(&Recorder{Label: lab})
	t.Logf("%d pages: %.1f allocs/page pooled, %.1f unpooled (budget %d)", len(pages), pooled, unpooled, pooledRecordBudget)
	if pooled > pooledRecordBudget {
		t.Errorf("pooled RecordPage: %.1f allocs/page, budget %d", pooled, pooledRecordBudget)
	}
}

// skipIfRace skips allocation tests of pooled paths under the race
// detector, where sync.Pool drops items at random.
func skipIfRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
}
