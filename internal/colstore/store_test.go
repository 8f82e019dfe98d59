package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// testRecord builds a realistic page record; i varies the page so
// batches hold distinct records, and site groups pages under a domain.
func testRecord(site string, rank, i int) *analysis.PageRecord {
	page := fmt.Sprintf("http://%s/p%d", site, i)
	rec := &analysis.PageRecord{
		Site: site, Rank: rank, PageURL: page,
		HTTP: []analysis.PageTraffic{
			{Domain: "cdn.com", Requests: 4 + i, SentItems: []analysis.Count{{Key: "user-agent", N: 4}}},
			{Domain: site, Requests: 2, RecvClasses: []analysis.Count{{Key: "html", N: 1}}},
		},
		AAObs:    []analysis.Count{{Key: "tracker.com", N: 1 + i}},
		NonAAObs: []analysis.Count{{Key: "cdn.com", N: 4}},
		CDNObs:   []analysis.Count{{Key: "d1abc.cloudfront.net", N: 1}},
	}
	slices.SortFunc(rec.HTTP, func(a, b analysis.PageTraffic) int { return strings.Compare(a.Domain, b.Domain) })
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

// encodeSegment is the segment a store seals as seq after ingesting
// recs, in order, and appending rows.
func encodeSegment(seq int, recs []*analysis.PageRecord, rows ...Outcome) []byte {
	var e segEncoder
	for _, rec := range recs {
		e.add(rec)
	}
	for _, o := range rows {
		e.addOutcome(o)
	}
	return e.appendSegment(nil, seq)
}

// testOutcomes are one row of each state.
func testOutcomes() []Outcome {
	return []Outcome{
		{Domain: "pub.com", Attempt: 1, State: OutcomeDone},
		{Domain: "news.com", Attempt: 1, State: OutcomeRetry, Err: "reset"},
		{Domain: "news.com", Attempt: 2, State: OutcomeFailed, Err: "reset"},
	}
}

// TestSegmentRoundTrip: records must survive the columnar encode
// exactly, including nil-vs-empty slice distinctions (chainDomains
// marshals null vs [] in the dataset's JSON).
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
	data := encodeSegment(7, recs, testOutcomes()...)
	seq, got, rows, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Errorf("seq = %d, want 7", seq)
	}
	if !reflect.DeepEqual(rows, testOutcomes()) {
		t.Errorf("outcome rows came back as %+v", rows)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], got[i]) {
			t.Errorf("record %d round-trip mismatch:\n want %+v\n got  %+v", i, recs[i], got[i])
		}
	}

	// Dictionary IDs assign in first-use order, so identical batches
	// encode byte-identically — also through an encoder that was reset
	// after sealing another batch.
	if !bytes.Equal(data, encodeSegment(7, recs, testOutcomes()...)) {
		t.Error("segment encoding is not deterministic")
	}
	var e segEncoder
	for _, rec := range allRecords() {
		e.add(rec)
	}
	e.addOutcome(Outcome{Domain: "x.com", Attempt: 3, State: OutcomeFailed, Err: "x"})
	e.reset()
	for _, rec := range recs {
		e.add(rec)
	}
	for _, o := range testOutcomes() {
		e.addOutcome(o)
	}
	if !bytes.Equal(data, e.appendSegment(nil, 7)) {
		t.Error("a reset encoder encodes the batch differently")
	}
}

// TestSegmentRejectsDamage: a sealed segment is all-or-nothing — any
// truncation or bit flip must fail decode, never yield partial records.
func TestSegmentRejectsDamage(t *testing.T) {
	recs := []*analysis.PageRecord{testRecord("pub.com", 1, 0), testRecord("pub.com", 1, 1)}
	data := encodeSegment(0, recs, testOutcomes()...)
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
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
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
		// Mid-crawl seals: exercise a multi-segment store.
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
	// One append sequence: each Seal wrote one segment, Close the third.
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, " "); got != "seg-000000.col seg-000001.col seg-000002.col" {
		t.Errorf("segments = %s", got)
	}

	re, err := Open(Config{Dir: dir, Meta: testMeta(), Resume: true})
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
	if _, err := Open(Config{Dir: dir, Meta: analysis.DatasetMeta{Name: "other"}, Resume: true}); err == nil {
		t.Error("resume with wrong crawl identity accepted")
	}
	// Re-open without Resume must refuse too.
	if _, err := Open(Config{Dir: dir, Meta: testMeta()}); err == nil {
		t.Error("open over existing store without Resume accepted")
	}
}

// TestStoreAutoSeal: the buffer sealing at SegmentPages without any
// explicit Seal call.
func TestStoreAutoSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta(), SegmentPages: 3})
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

// TestSealWaitsForInFlightSeal: a Seal that returns has seen every seal
// started before it finish — including the one an Ingest started when
// the buffer filled, whose records Seal no longer finds buffered. The
// ledger publishes a checkpoint as soon as Seal returns, so a Seal that
// returned early would let it vouch for pages in no durable segment.
func TestSealWaitsForInFlightSeal(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		st, err := Open(Config{Dir: dir, Meta: testMeta(), SegmentPages: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Ingest(testRecord("pub.com", 1, 0)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := st.Ingest(testRecord("pub.com", 1, 1)) // fills the buffer: auto-seal
			done <- err
		}()
		for s := st.Stats(); s.Pages < 2 || s.Pending > 0; s = st.Stats() {
			runtime.Gosched() // until the auto-seal has taken the buffer
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		names, err := listSegments(dir)
		if ierr := <-done; ierr != nil {
			t.Fatal(ierr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 {
			t.Fatalf("trial %d: Seal returned with %d segments on disk, want the auto-seal's 1", trial, len(names))
		}
	}
}

// TestConcurrentIngestAndSeal: workers ingesting at once, auto-sealing
// every few records, while Seal runs alongside, leave one contiguous
// segment sequence that replays to every record.
func TestConcurrentIngestAndSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta(), SegmentPages: 7})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 50
	var recs []*analysis.PageRecord
	for i := 0; i < workers*each; i++ {
		recs = append(recs, testRecord(fmt.Sprintf("site%d.com", i%workers), i%workers+1, i/workers))
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for _, rec := range recs[w*each : (w+1)*each] {
				if _, err := st.Ingest(rec); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for done := 0; done < workers; {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
			done++
		default:
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if name != segmentName(i) {
			t.Fatalf("segment %d is %s, want %s", i, name, segmentName(i))
		}
	}
	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, stats := ro.Dataset()
	if stats.Pages != len(recs) || stats.Duplicates != 0 {
		t.Fatalf("replayed %+v, want %d pages", stats, len(recs))
	}
	if !bytes.Equal(datasetBytes(t, ds), foldOracle(t, recs)) {
		t.Error("replayed dataset differs from the fold oracle")
	}
}

// TestStoreRefusesV1 pins the format breaks of the store: a v1
// manifest (which carried a shard count), a v2 one (which pinned no
// seed, page budget or site count), a v3 one (whose segments held no
// outcome rows: its crawl's progress was in a checkpoint file), and v1
// and v2 segment headers are refused, never read as the current version.
func TestStoreRefusesV1(t *testing.T) {
	for v, old := range map[int]string{
		1: `{"version":1,"name":"store-test","era":"pre","crawlIndex":0,"numShards":8}`,
		2: `{"version":2,"name":"store-test","era":"pre","crawlIndex":0}`,
		3: `{"version":3,"name":"store-test","era":"pre","crawlIndex":0,"seed":0,"pagesPerSite":0,"totalSites":0}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(old+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported store version %d", v)
		if _, err := Open(Config{Dir: dir, Meta: testMeta(), Resume: true}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Open of a v%d store: err = %v", v, err)
		}
		if _, err := OpenRead(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenRead of a v%d store: err = %v", v, err)
		}
	}
	for _, v := range []byte{1, 2} {
		seg := encodeSegment(0, []*analysis.PageRecord{testRecord("pub.com", 1, 0)})
		seg[len(segMagic)] = v
		if _, _, _, err := decodeSegment(resealed(seg)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported segment version %d", v)) {
			t.Errorf("decode of a v%d segment: err = %v", v, err)
		}
	}
}

// TestStoreRefusesMissingMiddleSegment: segments are published in seq
// order, so a store missing a segment below its highest seq was damaged;
// both opens refuse it, naming the missing file, rather than serve the
// rest as a plausible partial dataset. A missing last segment is what a
// crash before that seal leaves, and opens.
func TestStoreRefusesMissingMiddleSegment(t *testing.T) {
	recs := allRecords()
	for _, tc := range []struct {
		gone  int
		pages int // replayed when the open is allowed; -1 = refused
	}{{gone: 0, pages: -1}, {gone: 1, pages: -1}, {gone: 2, pages: 8}} {
		dir := t.TempDir()
		st, err := Open(Config{Dir: dir, Meta: testMeta()})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if _, err := st.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				if err := st.Seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.Remove(filepath.Join(dir, segmentName(tc.gone))); err != nil {
			t.Fatal(err)
		}
		ro, rerr := OpenRead(dir)
		w, werr := Open(Config{Dir: dir, Meta: testMeta(), Resume: true})
		if tc.pages < 0 {
			for _, err := range []error{rerr, werr} {
				var damaged *DamagedSegmentError
				if !errors.As(err, &damaged) || damaged.Name != segmentName(tc.gone) || !strings.Contains(err.Error(), "missing") {
					t.Errorf("segment %d deleted: err = %v, want a *DamagedSegmentError naming %s", tc.gone, err, segmentName(tc.gone))
				}
			}
			continue
		}
		if rerr != nil || werr != nil {
			t.Fatalf("last segment deleted: OpenRead %v, Open %v", rerr, werr)
		}
		if ro.Stats().Pages != tc.pages || w.Stats().Pages != tc.pages {
			t.Errorf("last segment deleted: replayed %d and %d pages, want %d", ro.Stats().Pages, w.Stats().Pages, tc.pages)
		}
	}
}

// TestStoreReplaysOutcomeRows: the rows appended after a site's pages
// are sealed with them, a seal with rows and no pages still publishes a
// segment, and a writable resume hands every sealed row back once, in
// seal order; a read-only open keeps none.
func TestStoreReplaysOutcomeRows(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	rows := testOutcomes()
	for _, rec := range allRecords()[:4] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendOutcomes(rows[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendOutcomes(rows[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := listSegments(dir); len(names) != 2 {
		t.Fatalf("sealed %v, want a second segment holding only rows", names)
	}
	if got := st.TakeOutcomes(); got != nil {
		t.Errorf("a fresh store replayed rows %+v", got)
	}
	re, err := Open(Config{Dir: dir, Meta: testMeta(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.TakeOutcomes(); !reflect.DeepEqual(got, rows) {
		t.Errorf("resume replayed rows %+v, want %+v", got, rows)
	}
	if got := re.TakeOutcomes(); got != nil {
		t.Errorf("rows handed out twice: %+v", got)
	}
	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.TakeOutcomes(); got != nil || ro.AppendOutcomes(rows[0]) == nil {
		t.Errorf("a read-only store kept rows %+v or took one", got)
	}
}

// TestStoreResumeRefusesAnotherCrawl: store.json pins the crawl's
// seed, page budget and site count beside its dataset identity, and a
// resume that names another value of any of them is refused before it
// folds a segment or changes a byte.
func TestStoreResumeRefusesAnotherCrawl(t *testing.T) {
	base := Config{Meta: testMeta(), Seed: 7, PagesPerSite: 4, TotalSites: 3}
	for name, change := range map[string]func(*Config){
		"seed":          func(c *Config) { c.Seed++ },
		"page budget":   func(c *Config) { c.PagesPerSite++ },
		"site count":    func(c *Config) { c.TotalSites++ },
		"crawl index":   func(c *Config) { c.Meta.CrawlIndex++ },
		"fault profile": func(c *Config) { c.FaultProfile = "flaky" },
		"fault seed":    func(c *Config) { c.FaultSeed = 3 },
		"nothing else":  func(c *Config) {},
	} {
		cfg := base
		cfg.Dir = t.TempDir()
		st, err := Open(cfg)
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
		before := dirBytes(t, cfg.Dir)
		change(&cfg)
		cfg.Resume = true
		re, err := Open(cfg)
		if name == "nothing else" {
			if err != nil {
				t.Fatalf("resume of the same crawl: %v", err)
			}
			if _, stats := re.Dataset(); stats.Pages != len(allRecords()) {
				t.Errorf("resume of the same crawl replayed %d pages, want %d", stats.Pages, len(allRecords()))
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "start fresh") {
			t.Errorf("resume with another %s: err = %v, want a refusal", name, err)
		}
		if !bytes.Equal(before, dirBytes(t, cfg.Dir)) {
			t.Errorf("refused resume with another %s changed the store", name)
		}
	}
}

// TestManifestPinsFaultsOnlyWhenSet: a fault-free store's manifest has
// no fault fields — the bytes every earlier build wrote, so their stores
// still resume — and a faulted store's names its profile and seed.
func TestManifestPinsFaultsOnlyWhenSet(t *testing.T) {
	for _, tc := range []struct {
		profile string
		seed    int64
		want    string
	}{
		{"", 0, `{"version":4,"name":"c","era":"pre","crawlIndex":0,"seed":7,"pagesPerSite":4,"totalSites":3}` + "\n"},
		{"flaky", 3, `{"version":4,"name":"c","era":"pre","crawlIndex":0,"seed":7,"pagesPerSite":4,"totalSites":3,"faultProfile":"flaky","faultSeed":3}` + "\n"},
	} {
		dir := t.TempDir()
		st, err := Open(Config{Dir: dir, Meta: analysis.DatasetMeta{Name: "c", Era: "pre"}, Seed: 7, PagesPerSite: 4, TotalSites: 3,
			FaultProfile: tc.profile, FaultSeed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "store.json")); err != nil || string(got) != tc.want {
			t.Errorf("profile %q: store.json = %s, %v; want %s", tc.profile, got, err, tc.want)
		}
	}
}

// dirBytes concatenates the names and contents of dir's files.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, e.Name()...), data...)
	}
	return all
}

// TestSealRetriesFailedPublish: a segment whose publish fails is
// published by the next seal, under the same seq and ahead of the
// records ingested since, so the sequence stays contiguous and no
// record is lost or duplicated.
func TestSealRetriesFailedPublish(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords()
	for _, rec := range recs[:4] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	// The store directory disappears under the next seal.
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[4:8] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err == nil {
		t.Fatal("Seal into a missing directory succeeded")
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[8:] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || st.Stats().Segments != 3 {
		t.Fatalf("segments %v, Stats().Segments = %d; want seg 0-2", names, st.Stats().Segments)
	}
	for i, want := range [][]*analysis.PageRecord{recs[:4], recs[4:8], recs[8:]} {
		got, _, err := ReadSegment(filepath.Join(dir, segmentName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || got[0].PageURL != want[0].PageURL {
			t.Errorf("segment %d holds %d records from %s, want %d from %s", i, len(got), got[0].PageURL, len(want), want[0].PageURL)
		}
	}
	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds, _ := ro.Dataset(); !bytes.Equal(datasetBytes(t, ds), foldOracle(t, recs)) {
		t.Error("replayed dataset differs from the fold oracle")
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
	torn := encodeSegment(99, recs[6:])

	base := t.TempDir()
	for cut := 0; cut <= len(torn); cut += len(torn)/64 + 1 {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		st, err := Open(Config{Dir: dir, Meta: testMeta()})
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
		tmp := filepath.Join(dir, segmentName(99)+".tmp-123")
		if err := os.WriteFile(tmp, torn[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Dir: dir, Meta: testMeta(), Resume: true})
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
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
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
	if _, err := Open(Config{Dir: dir, Meta: testMeta(), Resume: true}); err == nil {
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
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
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

// TestConcurrentRescanFoldsEachSegmentOnce: rescans running at once —
// concurrent /refresh requests on a wsquery — fold every segment sealed
// since the reader opened exactly once, however they interleave.
func TestConcurrentRescanFoldsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta(), SegmentPages: 50})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	const segments = 20
	var recs []*analysis.PageRecord
	for i := 0; i < segments*50; i++ {
		recs = append(recs, testRecord(fmt.Sprintf("site%03d.com", i/10), i/10+1, i%10))
	}
	for _, rec := range recs {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if names, err := listSegments(dir); err != nil || len(names) != segments {
		t.Fatalf("%d segments on disk (%v), want %d", len(names), err, segments)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ro.Rescan(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s := ro.Stats(); s.Segments != segments || s.Pages != len(recs) || s.Dups != 0 {
		t.Errorf("after 8 concurrent rescans: %d segments, %d pages, %d duplicates; want %d, %d, 0",
			s.Segments, s.Pages, s.Dups, segments, len(recs))
	}
}

// TestStoreIngestAllocs pins the ingest hot path's allocation budget.
// Folding allocates for genuinely retained aggregation state (dedup
// key, map growth); the pin catches accidental per-ingest overhead like
// re-encoding or scratch churn.
func TestStoreIngestAllocs(t *testing.T) {
	st, err := Open(Config{Dir: t.TempDir(), Meta: testMeta(), SegmentPages: 1 << 30})
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
	// The fold adds a record's counts into maps it already holds and
	// keeps its sockets by reference, so a record of a site it has seen
	// costs one allocation, its dedup key: the reading with the record's
	// per-page maps and with its flat count lists alike, where the budget
	// stood at 30. Regressions that copy or re-encode per ingest blow
	// well past 2.
	if avg > 2 {
		t.Errorf("Ingest allocates %.1f/op, want <= 2", avg)
	}
}
