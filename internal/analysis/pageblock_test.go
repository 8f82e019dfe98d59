package analysis_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// A record crosses from a fabric worker to its coordinator as a page
// block (colstore.AppendPageBlock / DecodePageBlock), and a local crawl
// hands the same record to its ledger as it is; these tests hold the
// block codec to the record it carries. They keep the names of the JSON
// spool-line codec's tests, which the block replaced.

// recordJSON is the oracle's view of a record: its encoding/json form,
// the spool line of the benchmark harness's writers.
func recordJSON(t *testing.T, rec *analysis.PageRecord) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkBlock holds the page block of rec to the oracle: it decodes to a
// record whose JSON is rec's, owning its strings, and encodes again to
// the same bytes. A record of the recorder's shape (sockets nil rather
// than empty, as the block has them) must come back deeply equal.
func checkBlock(t *testing.T, rec *analysis.PageRecord) []byte {
	t.Helper()
	block := colstore.AppendPageBlock([]byte("prefix"), rec)
	if string(block[:6]) != "prefix" {
		t.Fatalf("AppendPageBlock dropped its dst: %q", block[:6])
	}
	block = block[6:]
	got, err := colstore.DecodePageBlock(bytes.Clone(block))
	if err != nil {
		t.Fatalf("the block of %+v does not decode: %v", rec, err)
	}
	if want, back := recordJSON(t, rec), recordJSON(t, got); !bytes.Equal(want, back) {
		t.Fatalf("page block round trip:\n got %s\nwant %s", back, want)
	}
	if (rec.Sockets == nil || len(rec.Sockets) > 0) && !reflect.DeepEqual(got, rec) {
		t.Fatalf("page block round trip:\n got %#v\nwant %#v", got, rec)
	}
	if again := colstore.AppendPageBlock(nil, got); !bytes.Equal(again, block) {
		t.Fatalf("a decoded record re-encodes to other bytes:\n got %x\nwant %x", again, block)
	}
	return block
}

// checkBytes feeds DecodePageBlock arbitrary bytes, as they are and
// resealed: it must refuse them or return a record whose block decodes
// to the same record again.
func checkBytes(t *testing.T, data []byte) {
	t.Helper()
	for _, in := range [][]byte{data, resealed(data)} {
		rec, err := colstore.DecodePageBlock(in)
		if err != nil {
			continue
		}
		again, err := colstore.DecodePageBlock(colstore.AppendPageBlock(nil, rec))
		if err != nil {
			t.Fatalf("accepted %x, but its record's block is refused: %v", in, err)
		}
		if want, got := recordJSON(t, rec), recordJSON(t, again); !bytes.Equal(want, got) {
			t.Fatalf("accepted %x as %s; its block decodes to %s", in, want, got)
		}
	}
}

// The segment layout's frame, for resealed: magics and the footer's
// body-length and checksum words (colstore/segment.go).
const (
	segMagic    = "WSCOLSG1"
	segEndMagic = "WSCOLEND"
	segTailLen  = 24 + 4 + 8
)

// resealed returns data with the magics, footer body length and
// checksum a block carries, so mutated bytes reach the column decoder
// instead of all failing the CRC check.
func resealed(data []byte) []byte {
	if len(data) < len(segMagic)+segTailLen {
		return data
	}
	b := bytes.Clone(data)
	copy(b, segMagic)
	copy(b[len(b)-len(segEndMagic):], segEndMagic)
	crcOff := len(b) - 12
	binary.LittleEndian.PutUint32(b[crcOff-4:], uint32(crcOff-24))
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[:crcOff]))
	return b
}

// genRecord builds a record around two fuzzed strings, a fuzzed int and
// a flag byte choosing which optional parts (and which empty-but-set
// lists and maps) it carries.
func genRecord(a, b string, n int, flags uint8) *analysis.PageRecord {
	rec := &analysis.PageRecord{Site: a, Rank: n, PageURL: "http://" + a + "/" + b}
	if flags&1 != 0 {
		ws := analysis.SocketRecord{
			Site: a, Rank: n, PageURL: rec.PageURL, URL: "ws://" + b, ReceiverDomain: b, InitiatorDomain: a,
			ChainDomains: []string{a, b}, CrossOrigin: flags&2 != 0, HandshakeOK: flags&4 != 0,
			SentItems: []string{b}, RecvClasses: []string{a}, FramesSent: n, FramesRecv: -n,
			ChainBlocked: flags&8 != 0, AdRefs: n, AdSamples: []string{b, a},
		}
		if flags&16 != 0 {
			ws.ChainURLs, ws.SentItems, ws.AdSamples = []string{}, []string{}, nil
		}
		rec.Sockets = []analysis.SocketRecord{ws, {Site: b}}
	}
	if flags&32 != 0 {
		rec.HTTP = []analysis.PageTraffic{
			{Domain: a, Requests: n, SentItems: analysis.AppendCounts(nil, map[string]int{a: 1, b: n}),
				RecvClasses: []analysis.Count{}, ChainsBlocked: 1},
			{Domain: b + "x"},
		}
		switch {
		case a == b+"x":
			rec.HTTP = rec.HTTP[1:]
		case a > b+"x":
			slices.Reverse(rec.HTTP)
		}
	}
	if flags&64 != 0 {
		rec.AAObs = analysis.AppendCounts(nil, map[string]int{a: n, b: 1})
		rec.NonAAObs, rec.CDNObs = []analysis.Count{}, []analysis.Count{{Key: b, N: 2}}
	}
	if flags&128 != 0 {
		rec.Sockets = []analysis.SocketRecord{}
	}
	return rec
}

// blockSeeds are the fuzz seeds: the blocks of generated records, then
// bytes on the far side of each of the decoder's refusals. The first
// valid of them are blocks.
func blockSeeds(tb testing.TB) (seeds [][]byte, valid int) {
	for i := 0; i < 32; i++ {
		seeds = append(seeds, colstore.AppendPageBlock(nil, genRecord("a.com", "w.js?pub=p.example&pg=3", i-5, uint8(i*37))))
	}
	sample := colstore.AppendPageBlock(nil, samplePageRecord())
	seeds = append(seeds, sample, colstore.AppendPageBlock(nil, genRecord("é.example/ü", "\xff\xfe\"\\\n", 1<<40, 0xff)))
	valid = len(seeds)
	flipped := bytes.Clone(sample)
	flipped[len(segMagic)+5] ^= 0x40
	renumbered := bytes.Clone(sample)
	renumbered[len(segMagic)+1] = 1 // the seq uvarint, after the version's
	seeds = append(seeds,
		sample[:len(sample)-1],         // torn
		flipped,                        // bit rot: the checksum fails
		append(bytes.Clone(sample), 0), // a trailing byte
		[]byte(`{"site":"a.com","rank":1,"pageUrl":"http://a.com/"}`), // a v1 page line
		nil,
		// Records out of the ascending key order, and an HTTP entry keyed
		// by another domain than its own (domains {a, b}, strings {p}:
		// site a, rank 1, page p, no socket, one entry keyed a for b).
		colstore.AppendPageBlock(nil, withHTTP("b.com", "a.com")),
		colstore.AppendPageBlock(nil, withHTTP("a.com", "a.com")),
		colstore.AppendPageBlock(nil, &analysis.PageRecord{Site: "a.com", AAObs: []analysis.Count{{Key: "b", N: 1}, {Key: "a", N: 1}}}),
		hostileBlock([]byte{2, 1, 'a', 1, 'b', 0, 1, 1, 'p'}, []byte{0, 2, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0}, 0),
		resealed(renumbered),    // numbered 1
		segmentOf(tb, 2, false), // two records
		segmentOf(tb, 1, true),  // a record and an outcome row
		segmentOf(tb, 0, true),  // an outcome row and no record
	)
	return seeds, valid
}

// withHTTP is a record with an HTTP entry for each domain, in the order
// given.
func withHTTP(domains ...string) *analysis.PageRecord {
	rec := &analysis.PageRecord{Site: "a.com", Rank: 1, PageURL: "http://a.com/"}
	for _, d := range domains {
		rec.HTTP = append(rec.HTTP, analysis.PageTraffic{Domain: d, Requests: 1})
	}
	return rec
}

// segmentOf is the first segment a store seals after ingesting n
// sample pages and, with row, an outcome row.
func segmentOf(tb testing.TB, n int, row bool) []byte {
	dir := tb.TempDir()
	st, err := colstore.Open(colstore.Config{Dir: dir, Meta: analysis.DatasetMeta{Name: "c"}})
	if err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < n; p++ {
		rec := samplePageRecord()
		rec.PageURL += string(rune('a' + p))
		if _, err := st.Ingest(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if row {
		if err := st.AppendOutcomes(colstore.Outcome{Domain: "pub.com", Attempt: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-000000.col"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSpoolCodecMatchesJSON: for arbitrary bytes DecodePageBlock
// refuses them or returns a record whose own block decodes to it again;
// for arbitrary records — generated from the fuzzed strings, int and
// flags — the block decodes to a record whose encoding/json form is the
// original's, and encodes again to the same bytes.
func FuzzSpoolCodecMatchesJSON(f *testing.F) {
	seeds, _ := blockSeeds(f)
	for i, data := range seeds {
		f.Add(data, "a.com", "w.js?pub=p.example&pg=3", i-5, uint8(i*37))
	}
	f.Add([]byte(nil), "é.example/ü", "\xff\xfe\"\\\n", 1<<40, uint8(0xff))
	f.Add([]byte(nil), "<b>", "a&b", -1, uint8(0x7f))
	f.Fuzz(func(t *testing.T, data []byte, a, b string, n int, flags uint8) {
		checkBytes(t, data)
		checkBlock(t, genRecord(a, b, n, flags))
	})
}

// TestSpoolCodecSeeds runs the fuzz seeds as a plain table, and pins
// which of them the decoder takes: the blocks, and nothing else.
func TestSpoolCodecSeeds(t *testing.T) {
	seeds, valid := blockSeeds(t)
	for i, data := range seeds {
		checkBytes(t, data)
		if _, err := colstore.DecodePageBlock(data); (err == nil) != (i < valid) {
			t.Errorf("seed %d (%d bytes): decode error %v, want one %v", i, len(data), err, i >= valid)
		}
	}
	if _, err := colstore.DecodePageBlock(seeds[len(seeds)-3]); err == nil || !strings.Contains(err.Error(), "2 records") {
		t.Errorf("a two-record segment as a block: %v, want it refused for its record count", err)
	}
	checkBlock(t, samplePageRecord())
	for flags := 0; flags < 256; flags++ {
		checkBlock(t, genRecord("a.com", "w.js?pub=p.example&pg=3", flags-128, uint8(flags)))
		checkBlock(t, genRecord("é.example", "<b>\"q\"\\\n", flags, uint8(flags)))
	}
}

// crawlPages crawls a pre-patch world of the given size and hands every
// loaded page, with the labeler records are made under, to onPage.
func crawlPages(t *testing.T, publishers, pages int, onPage func(lab *labeler.Labeler, site crawler.Site, pageURL string, res *browser.PageResult)) {
	t.Helper()
	w := webgen.NewWorld(webgen.Config{Seed: 20170419, NumPublishers: publishers, Era: webgen.EraPrePatch})
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
	cfg := crawler.Config{
		PagesPerSite: pages, Seed: 5,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(5, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			onPage(lab, site, pageURL, res)
		},
	}
	var stats crawler.Stats
	for _, p := range w.Publishers {
		site := crawler.Site{Domain: p.Domain, Rank: p.Rank}
		if _, err := crawler.CrawlSite(context.Background(), cfg.SiteBrowser(site), site, cfg, &stats); err != nil {
			t.Fatal(err)
		}
	}
}

// crawlRecords crawls a pre-patch world of the given size and returns
// every page's record, all made by one Recorder.
func crawlRecords(t *testing.T, publishers, pages int) []*analysis.PageRecord {
	t.Helper()
	var recorder *analysis.Recorder
	var recs []*analysis.PageRecord
	crawlPages(t, publishers, pages, func(lab *labeler.Labeler, site crawler.Site, pageURL string, res *browser.PageResult) {
		if recorder == nil {
			recorder = analysis.NewRecorder(lab)
		}
		rec, err := recorder.RecordPage(site, pageURL, res)
		if err != nil {
			t.Errorf("RecordPage(%s): %v", pageURL, err)
			return
		}
		recs = append(recs, rec)
	})
	return recs
}

// TestRecorderReuseMatchesFreshRecorders is the recorder's oracle: the
// records one Recorder makes across a crawl, recycling its scratch from
// page to page and held until the crawl ends, equal a fresh Recorder's
// record of each page, taken as its page block as soon as it is made.
// A record that aliases the recycled scratch changes under a later page
// and fails here.
func TestRecorderReuseMatchesFreshRecorders(t *testing.T) {
	var reused *analysis.Recorder
	var held []*analysis.PageRecord
	var fresh [][]byte
	crawlPages(t, 20, 4, func(lab *labeler.Labeler, site crawler.Site, pageURL string, res *browser.PageResult) {
		if reused == nil {
			reused = analysis.NewRecorder(lab)
		}
		rec, err := reused.RecordPage(site, pageURL, res)
		if err != nil {
			t.Fatalf("RecordPage(%s): %v", pageURL, err)
		}
		held = append(held, rec)
		if rec, err = analysis.NewRecorder(lab).RecordPage(site, pageURL, res); err != nil {
			t.Fatalf("fresh RecordPage(%s): %v", pageURL, err)
		}
		fresh = append(fresh, colstore.AppendPageBlock(nil, rec))
	})
	sockets := 0
	for i, rec := range held {
		sockets += len(rec.Sockets)
		if block := colstore.AppendPageBlock(nil, rec); !bytes.Equal(block, fresh[i]) {
			want, _ := colstore.DecodePageBlock(fresh[i])
			t.Fatalf("page %s: reused recorder's record\n got %s\nwant %s", rec.PageURL, recordJSON(t, rec), recordJSON(t, want))
		}
	}
	if len(held) == 0 || sockets == 0 {
		t.Fatalf("crawl too quiet to compare: %d pages, %d sockets", len(held), sockets)
	}
	t.Logf("%d pages, %d sockets", len(held), sockets)
}

// TestCrawlLinesTakeHandPath: every record of a 40-publisher crawl comes
// back from its page block deeply equal — nil and empty parts included —
// and owns its strings: the block's bytes are overwritten before the
// comparison. It logs what a page costs on the wire as a block, in the
// page frame's base64, and as the JSON line the block replaced.
func TestCrawlLinesTakeHandPath(t *testing.T) {
	recs := crawlRecords(t, 40, 5)
	same, sockets, http := 0, 0, 0
	var blockBytes, jsonBytes int
	for _, rec := range recs {
		sockets += len(rec.Sockets)
		http += len(rec.HTTP)
		block := colstore.AppendPageBlock(nil, rec)
		blockBytes += len(block)
		jsonBytes += len(recordJSON(t, rec))
		got, err := colstore.DecodePageBlock(block)
		for i := range block {
			block[i] = 'x' // the record must not alias the block
		}
		if err == nil && reflect.DeepEqual(got, rec) {
			same++
		} else {
			t.Errorf("%s: block decodes to %v, %v", rec.PageURL, got, err)
		}
	}
	n := max(len(recs), 1)
	t.Logf("%d records (%d sockets, %d HTTP domains), %d equal after their block: %d B a block, %d B in base64, %d B as a JSON line",
		len(recs), sockets, http, same, blockBytes/n, base64.StdEncoding.EncodedLen(blockBytes/n), jsonBytes/n)
	if len(recs) < 150 || sockets == 0 || same != len(recs) {
		t.Errorf("%d records with %d sockets, %d equal after their block", len(recs), sockets, same)
	}
}

// Page block allocation budgets, per record of TestSpoolCodecAllocs'
// crawl. Appending into a reused buffer allocates nothing (the encoder
// is pooled). Decoding measures ≈ 31 (encoding/json, both ways: ≈ 78):
// the record, its dictionaries and their strings, and its slices, one
// per list — one string per distinct value of the block, however often
// the record repeats it. With the record's HTTP aggregates and deltas
// as maps, a map and a DomainTraffic each, it measured ≈ 47.
const (
	spoolEncodeBudget = 0
	spoolDecodeBudget = 35
)

// TestSpoolCodecAllocs pins the block codec's allocations per record
// over a small crawl's records.
func TestSpoolCodecAllocs(t *testing.T) {
	analysis.SkipIfRace(t)
	recs := crawlRecords(t, 8, 3)
	blocks := make([][]byte, len(recs))
	var buf []byte
	for i, rec := range recs {
		blocks[i] = colstore.AppendPageBlock(nil, rec)
	}
	n := float64(len(recs))
	enc := testing.AllocsPerRun(20, func() {
		for _, rec := range recs {
			buf = colstore.AppendPageBlock(buf[:0], rec)
		}
	}) / n
	dec := testing.AllocsPerRun(20, func() {
		for _, block := range blocks {
			if _, err := colstore.DecodePageBlock(block); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	ref := testing.AllocsPerRun(5, func() {
		for _, rec := range recs {
			var back analysis.PageRecord
			_ = json.Unmarshal(recordJSON(t, rec), &back)
		}
	}) / n
	t.Logf("%d records: %.1f allocs to append a block, %.1f to decode one (encoding/json, both ways: %.1f)", len(recs), enc, dec, ref)
	if enc > spoolEncodeBudget {
		t.Errorf("AppendPageBlock: %.1f allocs/record, budget %d", enc, spoolEncodeBudget)
	}
	if dec > spoolDecodeBudget {
		t.Errorf("DecodePageBlock: %.1f allocs/record, budget %d", dec, spoolDecodeBudget)
	}
}

// TestSpoolCursorBoundsHints: the block decoder takes no length on
// trust, so a block whose counts claim far more entries than it has
// bytes must be refused without an allocation in proportion to them.
// Each block is otherwise well formed: the checksum holds.
func TestSpoolCursorBoundsHints(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	dicts := []byte{1, 1, 'a', 0, 1, 1, 'p'} // domains {a}, no labels, strings {p}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, body := range map[string]struct {
		dicts, cols []byte
		sockets     uint32
	}{
		"dictionary entries": {dicts: cat(huge, []byte{0, 0}), cols: make([]byte, 8)},
		"dictionary entry":   {dicts: cat([]byte{1}, huge), cols: make([]byte, 8)},
		// site, rank 1, page, one socket: site, rank 1, page, url,
		// receiver, initiator, then its chain domains.
		"chain domains": {dicts: dicts, cols: cat([]byte{0, 2, 0, 1, 0, 2, 0, 0, 0, 0}, huge, make([]byte, 8)), sockets: 1},
		// site, rank 1, page, no socket, then its HTTP entries.
		"http entries": {dicts: dicts, cols: cat([]byte{0, 2, 0, 0}, huge, make([]byte, 8))},
		// ... no HTTP map, then its A&A observations.
		"aa obs": {dicts: dicts, cols: cat([]byte{0, 2, 0, 0, 0}, huge, make([]byte, 8))},
	} {
		data := hostileBlock(body.dicts, body.cols, body.sockets)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if rec, err := colstore.DecodePageBlock(data); err == nil {
			t.Fatalf("%s: accepted %x as %+v", name, data, rec)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: declining the block allocated %d bytes", name, n)
		}
	}
}

// hostileBlock frames dictionaries and columns as a one-record block
// numbered 0 — version, footer, checksum and magics as a seal writes
// them — claiming sockets sockets.
func hostileBlock(dicts, cols []byte, sockets uint32) []byte {
	b := binary.AppendUvarint([]byte(segMagic), 3)
	b = binary.AppendUvarint(b, 0)
	dictsOff := len(b)
	b = append(b, dicts...)
	colsOff := len(b)
	b = append(b, cols...)
	body := len(b)
	for _, v := range []uint32{uint32(dictsOff), uint32(colsOff), 1, sockets, 0, uint32(body)} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return append(b, segEndMagic...)
}
