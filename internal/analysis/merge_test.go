// Page-record, fold and spool-layout tests, from outside the package,
// as the ledger uses the first two — it folds each page record, decoded
// from its page block when a fabric worker sent it — and as dispatch,
// which imports analysis, writes the spool lines bench times.
package analysis_test

import (
	"bytes"
	"context"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

func samplePageRecord() *analysis.PageRecord {
	return &analysis.PageRecord{
		Site: "pub.com", Rank: 7, PageURL: "http://pub.com/p",
		Sockets: []analysis.SocketRecord{{
			Site: "pub.com", Rank: 7, PageURL: "http://pub.com/p",
			URL: "ws://tracker.com/ws", ReceiverDomain: "tracker.com",
			InitiatorDomain: "tracker.com",
			ChainDomains:    []string{"pub.com", "tracker.com"},
			CrossOrigin:     true, HandshakeOK: true,
			FramesSent: 2, FramesRecv: 1,
		}},
		HTTP: map[string]*analysis.DomainTraffic{
			"cdn.com": {Domain: "cdn.com", Requests: 4, SentItems: map[string]int{"user-agent": 4}},
		},
		AAObs:    map[string]int{"tracker.com": 1},
		NonAAObs: map[string]int{"cdn.com": 4},
		CDNObs:   map[string]int{"d1abc.cloudfront.net": 1},
	}
}

// TestSpoolRecordRoundTrip: a record survives its page block deeply
// equal, and the block's bytes are a function of the record.
func TestSpoolRecordRoundTrip(t *testing.T) {
	rec := samplePageRecord()
	block := colstore.AppendPageBlock(nil, rec)
	got, err := colstore.DecodePageBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", rec, got)
	}

	// Deterministic bytes: encoding the same record twice is identical.
	if again := colstore.AppendPageBlock(nil, samplePageRecord()); !bytes.Equal(block, again) {
		t.Error("encoding is not deterministic")
	}
}

// foldRecords folds each record, as the ledger takes every page.
func foldRecords(recs ...*analysis.PageRecord) (*analysis.Dataset, analysis.MergeStats) {
	folder := analysis.NewFolder(analysis.DatasetMeta{Name: "c"})
	for _, rec := range recs {
		folder.Fold(rec)
	}
	return folder.Finalize()
}

// TestMergeShardsDedupesByPage: the merge behind every fold keeps the
// first record of a (site, page) and drops the ones after it.
func TestMergeShardsDedupesByPage(t *testing.T) {
	first := samplePageRecord()
	dup := samplePageRecord()
	dup.HTTP["cdn.com"].Requests = 999 // must lose: first occurrence wins
	other := samplePageRecord()
	other.PageURL = "http://pub.com/q"

	ds, stats := foldRecords(first, dup, other)
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

// TestMergeShardsDerivesAADomainsFromDeltas: the merge derives D′ from
// the summed labeler deltas, with the labeler's threshold rule.
func TestMergeShardsDerivesAADomainsFromDeltas(t *testing.T) {
	// tracker.com: 2 A&A obs vs 10 non ⇒ 2 >= 0.1*10, in D′.
	// almost.com: 1 A&A obs vs 11 non ⇒ 1 < 1.1, out.
	// quiet.com: only non-A&A obs, out.
	rec := &analysis.PageRecord{Site: "a.com", Rank: 1, PageURL: "http://a.com/",
		AAObs:    map[string]int{"tracker.com": 2, "almost.com": 1},
		NonAAObs: map[string]int{"tracker.com": 10, "almost.com": 11, "quiet.com": 5}}
	ds, _ := foldRecords(rec)
	if want := []string{"tracker.com"}; !reflect.DeepEqual(ds.AADomains, want) {
		t.Errorf("AADomains = %v, want %v", ds.AADomains, want)
	}
}

// TestFolderAndMergeShardsAgree crawls a small synthetic world once and
// folds its page records two ways — the recorder's records as they are,
// as a local crawl's ledger takes every page into its store, and each
// record sent through its page block, as a fabric coordinator's ledger
// takes it — and requires byte-identical
// datasets: same site summaries, canonical socket order, HTTP
// aggregates, and the same derived D′.
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
	recorder := analysis.NewRecorder(lab)
	meta := analysis.DatasetMeta{Name: "c", Era: "pre-patch"}
	folder := analysis.NewFolder(meta)
	decoded := analysis.NewFolder(meta)

	sites := make([]crawler.Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := crawler.Config{
		PagesPerSite: 3, Seed: 5,
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
			back, err := colstore.DecodePageBlock(colstore.AppendPageBlock(nil, rec))
			if err != nil {
				t.Errorf("decode %s: %v", pageURL, err)
				return
			}
			decoded.Fold(back)
		},
	}
	var stats crawler.Stats
	for _, site := range sites {
		if _, err := crawler.CrawlSite(context.Background(), cfg.SiteBrowser(site), site, cfg, &stats); err != nil {
			t.Fatal(err)
		}
	}

	live, liveStats := folder.Finalize()
	merged, mstats := decoded.Finalize()
	if mstats.Duplicates != 0 {
		t.Errorf("decoded fold stats = %+v", mstats)
	}
	if liveStats.Pages != mstats.Pages || mstats.Pages == 0 {
		t.Errorf("folded %d pages, %d decoded", liveStats.Pages, mstats.Pages)
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
		t.Errorf("folded dataset (%d bytes) differs from the decoded blocks' (%d bytes)", a.Len(), b.Len())
	}
}

// TestShardForIsFNV1a pins the spool's shard rule — FNV-1a of the site
// domain, mod the shard count — through the file each site's line lands
// in: the layout bench's traced twin of the page path writes and times.
func TestShardForIsFNV1a(t *testing.T) {
	const shards = 8
	dir := t.TempDir()
	sp, err := dispatch.OpenSpoolBatch(dir, shards, false, dispatch.BatchPolicy{Pages: 64, Bytes: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for _, tc := range []struct {
		domain string
		want   int
	}{
		{"a.com", 7},
		{"alpha.com", 4},
		{"site017.com", 1},
		{"publisher-00042.example", 4},
		{"33across.com", 5},
	} {
		h := fnv.New64a()
		h.Write([]byte(tc.domain))
		if ref := int(h.Sum64() % shards); ref != tc.want {
			t.Fatalf("pin %q mod %d = %d, but hash/fnv gives %d", tc.domain, shards, tc.want, ref)
		}
		before, err := sp.ShardSizes()
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Append(&analysis.PageRecord{Site: tc.domain, Rank: 1, PageURL: "http://" + tc.domain + "/"}); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		after, err := sp.ShardSizes()
		if err != nil {
			t.Fatal(err)
		}
		for i := range after {
			if grew := after[i] > before[i]; grew != (i == tc.want) {
				t.Errorf("%s: shard %d grew %v, want its line in shard %d only", tc.domain, i, grew, tc.want)
			}
		}
	}
}
