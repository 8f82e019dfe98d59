package analysis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// refEncode and refDecode are the spool codec as it was before the hand
// encoder and cursor decoder: encoding/json both ways. They are the
// oracle; production reaches encoding/json only on its fallback branch.
func refEncode(rec *analysis.PageRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("analysis: encode spool record: %w", err)
	}
	return append(data, '\n'), nil
}

func refDecode(line []byte) (*analysis.PageRecord, error) {
	var rec analysis.PageRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("analysis: decode spool record: %w", err)
	}
	return &rec, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// recycled is the SpoolDecoder every checkDecode also runs, so each line
// is decoded into maps the lines before it left behind.
var recycled analysis.SpoolDecoder

// checkDecode holds DecodeSpoolLine and a recycling SpoolDecoder to the
// oracle on one line: same record, same nil-ness, same error.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := refDecode(line)
	for _, d := range []*analysis.SpoolDecoder{nil, &recycled} {
		got, gotErr := d.Decode(line)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("decode %q (recycling %v): err %v, oracle %v", line, d != nil, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q (recycling %v):\n got %#v\nwant %#v", line, d != nil, got, want)
		}
	}
}

// checkEncode holds EncodeSpoolRecord and AppendSpoolRecord to the
// oracle on one record, then DecodeSpoolLine to its oracle on the line.
func checkEncode(t *testing.T, rec *analysis.PageRecord) {
	t.Helper()
	var buf bytes.Buffer
	gotErr := analysis.EncodeSpoolRecord(&buf, rec)
	want, wantErr := refEncode(rec)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("EncodeSpoolRecord(%+v): err %v, oracle %v", rec, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("EncodeSpoolRecord(%+v):\n got %s\nwant %s", rec, buf.Bytes(), want)
	}
	if app, err := analysis.AppendSpoolRecord([]byte("prefix"), rec); err != nil || string(app) != "prefix"+string(want) {
		t.Fatalf("AppendSpoolRecord(prefix, %+v) = %q, %v; want prefix%s", rec, app, err, want)
	}
	checkDecode(t, want[:len(want)-1])
}

// spoolDecodeSeeds are lines on both sides of the cursor's shape; '@'
// stands for a backslash.
var spoolDecodeSeeds = []string{
	`{"site":"a.com","rank":1,"pageUrl":"http://a.com/"}`,
	`{"site":"a.com","rank":-3,"pageUrl":"http://a.com/?x=1@u0026y=2@u003cb@u003e"}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","sockets":[{"site":"a.com","rank":1,"pageUrl":"p","url":"ws://t.com/","receiver":"t.com","initiator":"a.com","chainDomains":null,"chainUrls":[],"crossOrigin":true,"handshakeOk":false,"sentItems":["ua","cookie"],"recvClasses":["JSON"],"framesSent":2,"framesRecv":0,"chainBlocked":true,"adRefs":3,"adSamples":["Buy, now]","{x}"]},{"site":"a.com","rank":1,"pageUrl":"p","url":"","receiver":"","initiator":"","chainDomains":["a.com"],"chainUrls":["http://a.com/"],"crossOrigin":false,"handshakeOk":true,"framesSent":0,"framesRecv":0,"chainBlocked":false}]}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","http":{"b.com":{"domain":"b.com","requests":2,"sentItems":{"cookie":1,"ua":2},"recvClasses":{"HTML":1},"chainsBlocked":0},"c.com":null},"aaObs":{"t.com":1},"nonAaObs":{"b.com":4},"cdnObs":{"d1.cloudfront.net":1}}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","http":{"b.com":{"domain":"x.com","requests":1,"chainsBlocked":0}},"aaObs":{"b.com":1,"x.com":2}}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","aaObs":{"z.com":1,"a.com":2}}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","aaObs":{"a.com":1,"a.com":2}}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","aaObs":{}}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","aaObs":null}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","sockets":[]}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","sockets":null}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","sockets":[{"url":"ws://t.com/"}]}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","sockets":[{"site":"a.com","rank":1,"pageUrl":"p","url":"","receiver":"","initiator":"","chainDomains":null,"chainUrls":null,"crossOrigin":false,"handshakeOk":false,"sentItems":[],"framesSent":0,"framesRecv":0,"chainBlocked":false,"adRefs":0}]}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","http":{"b.com":{"domain":"b.com","requests":2,"sentItems":{},"chainsBlocked":0}}}`,
	`{"site":"a.com","site":"b.com","rank":1,"pageUrl":"p"}`,
	`{"rank":1,"site":"a.com","pageUrl":"p"}`,
	`{"Site":"a.com","rank":1,"pageUrl":"p"}`,
	`{"site":"a.com","rank":1,"pageUrl":"p","extra":1}`,
	`{"site": "a.com","rank":1,"pageUrl":"p"}`,
	`{"site":"a.com","rank":1,"pageUrl":"p"} `,
	`{"site":"a.com","rank":1,"pageUrl":"p"}x`,
	`{"site":"a.com","rank":1,"pageUrl":"p"`,
	`{"site":"a.com","rank":1,"pageUrl":"p`,
	`{"site":"@"q@"@@","rank":1,"pageUrl":"@n@t@/"}`,
	`{"site":"@u00e9@u003C","rank":1,"pageUrl":"é&<>"}`,
	`{"site":"a.com","rank":1,"pageUrl":"@u0026@u00"}`,
	`{"site":"a.com","rank":007,"pageUrl":"p"}`,
	`{"site":"a.com","rank":-0,"pageUrl":"p"}`,
	`{"site":"a.com","rank":0,"pageUrl":"p"}`,
	`{"site":"a.com","rank":1.5,"pageUrl":"p"}`,
	`{"site":"a.com","rank":1e3,"pageUrl":"p"}`,
	`{"site":"a.com","rank":-123456789012345678,"pageUrl":"p"}`,
	`{"site":"a.com","rank":12345678901234567890,"pageUrl":"p"}`,
	`{"site":"a.com","rank":true,"pageUrl":"p"}`,
	`null`,
	`{}`,
	`[]`,
	`{not json}`,
	``,
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
		rec.HTTP = map[string]*analysis.DomainTraffic{
			a:       {Domain: a, Requests: n, SentItems: map[string]int{a: 1, b: n}, RecvClasses: map[string]int{}, ChainsBlocked: 1},
			b + "x": nil,
		}
	}
	if flags&64 != 0 {
		rec.AAObs, rec.NonAAObs, rec.CDNObs = map[string]int{a: n, b: 1}, map[string]int{}, map[string]int{b: 2}
	}
	if flags&128 != 0 {
		rec.Sockets = []analysis.SocketRecord{}
	}
	return rec
}

// FuzzSpoolCodecMatchesJSON: for arbitrary bytes DecodeSpoolLine equals
// the encoding/json decoder in record value and in nil/err outcome, and
// for arbitrary records — the fuzzer's lines that decode, and generated
// ones — EncodeSpoolRecord's bytes equal the encoding/json encoder's
// plus the newline.
func FuzzSpoolCodecMatchesJSON(f *testing.F) {
	for i, line := range spoolDecodeSeeds {
		f.Add([]byte(strings.ReplaceAll(line, "@", `\`)), "a.com", "w.js?pub=p.example&pg=3", i-5, uint8(i*37))
	}
	f.Add([]byte(`{"site":"a.com"}`), "é.example/ü", "\xff\xfe\"\\\n", 1<<40, uint8(0xff))
	f.Add([]byte(`{"site":"a.com"}`), "<b>", "a&b", -1, uint8(0x7f))
	f.Fuzz(func(t *testing.T, line []byte, a, b string, n int, flags uint8) {
		checkDecode(t, line)
		if rec, err := refDecode(line); err == nil {
			checkEncode(t, rec)
		}
		checkEncode(t, genRecord(a, b, n, flags))
	})
}

// TestSpoolCodecSeeds runs the fuzz seeds as a plain table, and pins
// which of them the cursor takes.
func TestSpoolCodecSeeds(t *testing.T) {
	fast := 0
	for _, line := range spoolDecodeSeeds {
		raw := []byte(strings.ReplaceAll(line, "@", `\`))
		checkDecode(t, raw)
		if _, ok := analysis.FastDecodeSpool(raw); ok {
			fast++
		}
	}
	// The first five lines, the negative 18-digit rank and "rank":0;
	// everything else is encoding/json's to accept or refuse.
	if fast != 7 {
		t.Errorf("cursor took %d of %d seed lines, want 7", fast, len(spoolDecodeSeeds))
	}
	checkEncode(t, nil)
	checkEncode(t, samplePageRecord())
	for flags := 0; flags < 256; flags++ {
		checkEncode(t, genRecord("a.com", "w.js?pub=p.example&pg=3", flags-128, uint8(flags)))
		checkEncode(t, genRecord("é.example", "<b>\"q\"\\\n", flags, uint8(flags)))
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
// page to page and held until the crawl ends, encode byte for byte as a
// fresh Recorder's record of each page, encoded as soon as it is made.
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
		line, err := analysis.AppendSpoolRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, line)
	})
	sockets := 0
	for i, rec := range held {
		sockets += len(rec.Sockets)
		line, err := analysis.AppendSpoolRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, fresh[i]) {
			t.Fatalf("page %s: reused recorder's record\n got %s\nwant %s", rec.PageURL, line, fresh[i])
		}
	}
	if len(held) == 0 || sockets == 0 {
		t.Fatalf("crawl too quiet to compare: %d pages, %d sockets", len(held), sockets)
	}
	t.Logf("%d pages, %d sockets", len(held), sockets)
}

// TestCrawlLinesTakeHandPath: every record of a 40-publisher crawl is
// encoded by the appender and its line decoded by the cursor — the
// encoding/json fallback is for inputs this program never produces.
func TestCrawlLinesTakeHandPath(t *testing.T) {
	recs := crawlRecords(t, 40, 5)
	encoded, decoded, sockets, http := 0, 0, 0, 0
	for _, rec := range recs {
		sockets += len(rec.Sockets)
		http += len(rec.HTTP)
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if line, ok := analysis.FastEncodeSpool(rec); ok && bytes.Equal(line, want) {
			encoded++
		} else {
			t.Errorf("%s: appender declined (ok=%v) or differs:\n got %s\nwant %s", rec.PageURL, ok, line, want)
		}
		got, ok := analysis.FastDecodeSpool(want)
		for i := range want {
			want[i] = 'x' // the record must not alias the line
		}
		if ok && reflect.DeepEqual(got, rec) {
			decoded++
		} else {
			t.Errorf("%s: cursor declined (ok=%v) or differs", rec.PageURL, ok)
		}
	}
	t.Logf("%d lines (%d sockets, %d HTTP domains): %d encoded by the appender, %d decoded by the cursor",
		len(recs), sockets, http, encoded, decoded)
	if len(recs) < 150 || sockets == 0 || encoded != len(recs) || decoded != len(recs) {
		t.Errorf("%d lines with %d sockets, %d encoded by the appender, %d decoded by the cursor",
			len(recs), sockets, encoded, decoded)
	}
}

// Spool codec allocation budgets, per record of TestSpoolCodecAllocs'
// crawl. Encoding into a reused buffer allocates nothing (the sort
// scratch is pooled). Decoding measures ≈ 39 (encoding/json: ≈ 118):
// the record, its slices and maps, each DomainTraffic, and a copy of
// each string the record does not already hold — lists and maps are
// sized once, and a repeated domain or Table 5 item is not copied again.
const (
	spoolEncodeBudget         = 0
	spoolDecodeBudget         = 44
	spoolRecycledDecodeBudget = 18
)

// TestSpoolCodecAllocs pins the codec's allocations per record over a
// small crawl's records.
func TestSpoolCodecAllocs(t *testing.T) {
	analysis.SkipIfRace(t)
	recs := crawlRecords(t, 8, 3)
	lines := make([][]byte, len(recs))
	var buf []byte
	for i, rec := range recs {
		line, err := analysis.AppendSpoolRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = line[:len(line)-1]
	}
	n := float64(len(recs))
	enc := testing.AllocsPerRun(20, func() {
		for _, rec := range recs {
			buf, _ = analysis.AppendSpoolRecord(buf[:0], rec)
		}
	}) / n
	dec := testing.AllocsPerRun(20, func() {
		for _, line := range lines {
			if _, err := analysis.DecodeSpoolLine(line); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	var d analysis.SpoolDecoder
	dec2 := testing.AllocsPerRun(20, func() {
		for _, line := range lines {
			if _, err := d.Decode(line); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	ref := testing.AllocsPerRun(5, func() {
		for _, line := range lines {
			_, _ = refDecode(line)
		}
	}) / n
	t.Logf("%d records: %.1f allocs to encode, %.1f to decode, %.1f recycling (encoding/json: %.1f)", len(recs), enc, dec, dec2, ref)
	if enc > spoolEncodeBudget {
		t.Errorf("AppendSpoolRecord: %.1f allocs/record, budget %d", enc, spoolEncodeBudget)
	}
	if dec > spoolDecodeBudget {
		t.Errorf("DecodeSpoolLine: %.1f allocs/record, budget %d", dec, spoolDecodeBudget)
	}
	if dec2 > spoolRecycledDecodeBudget {
		t.Errorf("SpoolDecoder.Decode: %.1f allocs/record, budget %d", dec2, spoolRecycledDecodeBudget)
	}
}

// TestSpoolCursorBoundsHints: the cursor sizes lists and maps from a
// count of commas, so a hostile line of commas must not buy an
// allocation in proportion to them before it is declined (a socket is
// ≈ 250 bytes: 100 000 commas asked for 25 MB).
func TestSpoolCursorBoundsHints(t *testing.T) {
	commas := strings.Repeat(",", 100000)
	for _, line := range []string{
		`{"site":"a.com","rank":1,"pageUrl":"p","sockets":[` + commas + `]}`,
		`{"site":"a.com","rank":1,"pageUrl":"p","http":{` + commas + `}}`,
		`{"site":"a.com","rank":1,"pageUrl":"p","aaObs":{` + commas + `}}`,
	} {
		raw := []byte(line)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := analysis.DecodeSpoolLine(raw); err == nil {
			t.Fatalf("accepted %.60q…", line)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("declining %.60q… allocated %d bytes", line, n)
		}
	}
}
