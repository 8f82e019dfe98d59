package colstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// testRecord builds a realistic page record; i varies the page so
// batches hold distinct records, and site groups pages under a domain.
func testRecord(site string, rank, i int) *analysis.PageRecord {
	page := fmt.Sprintf("http://%s/p%d", site, i)
	rec := &analysis.PageRecord{
		Site: site, Rank: rank, PageURL: page,
		HTTP: map[string]*analysis.DomainTraffic{
			"cdn.com": {Domain: "cdn.com", Requests: 4 + i, SentItems: map[string]int{"user-agent": 4}},
			site:      {Domain: site, Requests: 2, RecvClasses: map[string]int{"html": 1}},
		},
		AAObs:    map[string]int{"tracker.com": 1 + i},
		NonAAObs: map[string]int{"cdn.com": 4},
		CDNObs:   map[string]int{"d1abc.cloudfront.net": 1},
	}
	if i%2 == 0 {
		rec.Sockets = []analysis.SocketRecord{{
			Site: site, Rank: rank, PageURL: page,
			URL: "ws://tracker.com/ws", ReceiverDomain: "tracker.com",
			InitiatorDomain: "tracker.com",
			ChainDomains:    []string{site, "tracker.com"},
			ChainURLs:       []string{"http://" + site + "/s.js"},
			CrossOrigin:     true, HandshakeOK: true, ChainBlocked: i%4 == 0,
			FramesSent: 2 + i, FramesRecv: 1,
			SentItems:   []string{"cookies", "user-agent"},
			RecvClasses: []string{"json"},
			AdRefs:      i % 3,
		}}
	}
	return rec
}

func spoolLine(t *testing.T, rec *analysis.PageRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := analysis.EncodeSpoolRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestSegmentRoundTrip: records must survive the columnar encode
// byte-exactly in spool-JSON terms, including nil-vs-empty slice
// distinctions (chainDomains marshals null vs []).
func TestSegmentRoundTrip(t *testing.T) {
	recs := []*analysis.PageRecord{
		testRecord("pub.com", 1, 0),
		testRecord("pub.com", 1, 1),
		testRecord("news.com", 2, 0),
		// Edge shapes: no sockets/http/obs at all, and empty-but-non-nil
		// chain slices.
		{Site: "bare.com", Rank: 3, PageURL: "http://bare.com/"},
		{Site: "empty.com", Rank: 4, PageURL: "http://empty.com/",
			Sockets: []analysis.SocketRecord{{
				Site: "empty.com", Rank: 4, PageURL: "http://empty.com/",
				URL: "ws://empty.com/ws", ReceiverDomain: "empty.com",
				InitiatorDomain: "empty.com",
				ChainDomains:    []string{}, ChainURLs: []string{},
			}}},
	}
	data := encodeSegment(3, 7, recs)
	shard, seq, got, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 3 || seq != 7 {
		t.Errorf("shard/seq = %d/%d, want 3/7", shard, seq)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want, gotLine := spoolLine(t, recs[i]), spoolLine(t, got[i])
		if !bytes.Equal(want, gotLine) {
			t.Errorf("record %d round-trip mismatch:\n want %s\n got  %s", i, want, gotLine)
		}
	}

	// Dictionary IDs assign in first-use order, so identical batches
	// encode byte-identically.
	if !bytes.Equal(data, encodeSegment(3, 7, recs)) {
		t.Error("segment encoding is not deterministic")
	}
}

// TestSegmentRejectsDamage: a sealed segment is all-or-nothing — any
// truncation or bit flip must fail decode, never yield partial records.
func TestSegmentRejectsDamage(t *testing.T) {
	recs := []*analysis.PageRecord{testRecord("pub.com", 1, 0), testRecord("pub.com", 1, 1)}
	data := encodeSegment(0, 0, recs)
	for _, cut := range []int{len(data) - 1, len(data) - 9, len(data) / 2, 10, 0} {
		if _, _, _, err := decodeSegment(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	for _, flip := range []int{9, len(data) / 2, len(data) - 20} {
		bad := bytes.Clone(data)
		bad[flip] ^= 0xff
		if _, _, _, err := decodeSegment(bad); err == nil {
			t.Errorf("bit flip at %d accepted", flip)
		}
	}
}

// storeDataset folds recs through a store (seal cadence per flush) and
// returns the finalized dataset bytes.
func datasetBytes(t *testing.T, ds *analysis.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testMeta() analysis.DatasetMeta {
	return analysis.DatasetMeta{Name: "store-test", Era: "pre", CrawlIndex: 0}
}

func allRecords() []*analysis.PageRecord {
	var recs []*analysis.PageRecord
	for s, site := range []string{"pub.com", "news.com", "shop.com"} {
		for i := 0; i < 4; i++ {
			recs = append(recs, testRecord(site, s+1, i))
		}
	}
	return recs
}

// foldOracle is the reference aggregation: the same records through a
// bare Folder.
func foldOracle(t *testing.T, recs []*analysis.PageRecord) []byte {
	t.Helper()
	f := analysis.NewFolder(testMeta())
	for _, rec := range recs {
		f.Fold(rec)
	}
	ds, _ := f.Finalize()
	return datasetBytes(t, ds)
}

// TestStoreIngestSealReopen: ingest → seal → reopen(Resume) must
// reconstruct the identical dataset from segments alone, and duplicates
// must drop on ingest and on replay.
func TestStoreIngestSealReopen(t *testing.T) {
	dir := t.TempDir()
	recs := allRecords()
	st, err := Open(Config{Dir: dir, NumShards: 4, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		fresh, err := st.Ingest(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("record %d reported duplicate", i)
		}
		// Mid-crawl seals: exercise multi-segment shards.
		if i == 3 || i == 7 {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fresh, err := st.Ingest(testRecord("pub.com", 1, 0)); err != nil || fresh {
		t.Fatalf("duplicate ingest: fresh=%v err=%v", fresh, err)
	}
	liveDS, liveStats := st.Dataset()
	if liveStats.Pages != len(recs) || liveStats.Duplicates != 1 {
		t.Errorf("live stats = %+v", liveStats)
	}
	live := datasetBytes(t, liveDS)
	want := foldOracle(t, recs)
	if !bytes.Equal(live, want) {
		t.Error("live store dataset differs from fold oracle")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, NumShards: 4, Meta: testMeta(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	reDS, reStats := re.Finalize()
	if reStats.Pages != len(recs) {
		t.Errorf("replayed %d pages, want %d (stats %+v)", reStats.Pages, len(recs), reStats)
	}
	if got := datasetBytes(t, reDS); !bytes.Equal(got, want) {
		t.Error("reopened store dataset differs from fold oracle")
	}

	// A second Resume against different meta must refuse.
	if _, err := Open(Config{Dir: dir, NumShards: 4, Meta: analysis.DatasetMeta{Name: "other"}, Resume: true}); err == nil {
		t.Error("resume with wrong crawl identity accepted")
	}
	// Re-open without Resume must refuse too.
	if _, err := Open(Config{Dir: dir, NumShards: 4, Meta: testMeta()}); err == nil {
		t.Error("open over existing store without Resume accepted")
	}
}

// TestStoreAutoSeal: a shard's buffer sealing at SegmentPages without
// any explicit Seal call.
func TestStoreAutoSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, NumShards: 1, Meta: testMeta(), SegmentPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := st.Ingest(testRecord("pub.com", 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("auto-seal produced %d segments, want 2: %v", len(names), names)
	}
	if st.Stats().Pending != 1 {
		t.Errorf("pending = %d, want 1", st.Stats().Pending)
	}
}

// TestStoreCrashMidSealRecovers sweeps a SIGKILL through every byte of
// a segment write: a kill mid-seal can only ever leave a partial temp
// file (the rename that publishes a segment is atomic), and for every
// possible torn length the reopened store must come up clean, drop the
// temp, and still hold exactly the previously sealed data.
func TestStoreCrashMidSealRecovers(t *testing.T) {
	recs := allRecords()
	sealed := recs[:6]
	torn := encodeSegment(0, 99, recs[6:])

	base := t.TempDir()
	for cut := 0; cut <= len(torn); cut += len(torn)/64 + 1 {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		st, err := Open(Config{Dir: dir, NumShards: 2, Meta: testMeta()})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range sealed {
			if _, err := st.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The kill: a torn temp file, cut bytes long.
		tmp := filepath.Join(dir, segmentName(0, 99)+".tmp-123")
		if err := os.WriteFile(tmp, torn[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Dir: dir, NumShards: 2, Meta: testMeta(), Resume: true})
		if err != nil {
			t.Fatalf("cut %d: resume failed: %v", cut, err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("cut %d: torn temp not cleaned up", cut)
		}
		ds, stats := re.Dataset()
		if stats.Pages != len(sealed) {
			t.Fatalf("cut %d: recovered %d pages, want %d", cut, stats.Pages, len(sealed))
		}
		if got, want := datasetBytes(t, ds), foldOracle(t, sealed); !bytes.Equal(got, want) {
			t.Errorf("cut %d: recovered dataset differs from oracle", cut)
		}
	}
}

// TestStoreTornSealedSegmentIsHardError: a *renamed* segment is
// post-rename + dir-sync, so damage to it means the storage lied; the
// store must refuse to open rather than silently drop pages.
func TestStoreTornSealedSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, NumShards: 1, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range allRecords() {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	if len(names) == 0 {
		t.Fatal("no segments sealed")
	}
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, NumShards: 1, Meta: testMeta(), Resume: true}); err == nil {
		t.Error("torn sealed segment accepted on resume")
	} else if !strings.Contains(err.Error(), "damaged") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := OpenRead(dir); err == nil {
		t.Error("torn sealed segment accepted by OpenRead")
	}
}

// TestOpenReadFollowsLiveStore: a read-only store over a live crawl's
// directory sees sealed data, and Rescan picks up later seals.
func TestOpenReadFollowsLiveStore(t *testing.T) {
	dir := t.TempDir()
	recs := allRecords()
	st, err := Open(Config{Dir: dir, NumShards: 2, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:6] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := ro.Dataset(); stats.Pages != 6 {
		t.Fatalf("reader sees %d pages, want 6", stats.Pages)
	}
	if _, err := ro.Ingest(recs[6]); err == nil {
		t.Error("read-only store accepted Ingest")
	}
	if err := ro.Seal(); err == nil {
		t.Error("read-only store accepted Seal")
	}

	for _, rec := range recs[6:] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Rescan(); err != nil {
		t.Fatal(err)
	}
	ds, stats := ro.Dataset()
	if stats.Pages != len(recs) {
		t.Fatalf("after rescan reader sees %d pages, want %d", stats.Pages, len(recs))
	}
	if got, want := datasetBytes(t, ds), foldOracle(t, recs); !bytes.Equal(got, want) {
		t.Error("reader dataset differs from fold oracle after rescan")
	}
}

// TestStoreIngestAllocs pins the ingest hot path's allocation budget.
// Folding allocates for genuinely retained aggregation state (dedup
// key, map growth); the pin catches accidental per-ingest overhead like
// re-encoding or scratch churn.
func TestStoreIngestAllocs(t *testing.T) {
	st, err := Open(Config{Dir: t.TempDir(), NumShards: 4, Meta: testMeta(), SegmentPages: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-build distinct records so the measured loop only ingests.
	const n = 400
	recs := make([]*analysis.PageRecord, n)
	for i := range recs {
		recs[i] = testRecord(fmt.Sprintf("site%d.com", i%37), i%37+1, i/37)
	}
	i := 0
	avg := testing.AllocsPerRun(n, func() {
		if _, err := st.Ingest(recs[i%n]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The fold retains sockets, HTTP aggregates, and obs deltas per
	// record; ~30 allocations covers that retained state. Regressions
	// that copy or re-encode per ingest blow well past it.
	if avg > 30 {
		t.Errorf("Ingest allocates %.1f/op, want <= 30", avg)
	}
}
