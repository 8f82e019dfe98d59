package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/labeler"
)

func queryStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(Config{Dir: t.TempDir(), Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range allRecords() {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestEngineSites(t *testing.T) {
	e := NewEngine(queryStore(t))
	all := e.Sites(SitesQuery{})
	if len(all) != 3 {
		t.Fatalf("sites = %d, want 3", len(all))
	}
	if all[0].Rank != 1 || all[1].Rank != 2 || all[2].Rank != 3 {
		t.Errorf("sites out of rank order: %+v", all)
	}
	if got := e.Sites(SitesQuery{Domain: "news.com"}); len(got) != 1 || got[0].Domain != "news.com" {
		t.Errorf("domain filter: %+v", got)
	}
	if got := e.Sites(SitesQuery{MinRank: 2, MaxRank: 2}); len(got) != 1 || got[0].Rank != 2 {
		t.Errorf("rank filter: %+v", got)
	}
	if got := e.Sites(SitesQuery{WithSockets: true}); len(got) != 3 {
		t.Errorf("withSockets filter: %+v", got)
	}
}

func TestEngineChains(t *testing.T) {
	e := NewEngine(queryStore(t))
	all := e.Chains(ChainsQuery{})
	// Each site ingested 4 pages; even pages carry one socket → 2 each.
	if all.Total != 6 || len(all.Sockets) != 6 {
		t.Fatalf("total = %d (%d listed), want 6", all.Total, len(all.Sockets))
	}
	if got := e.Chains(ChainsQuery{Site: "pub.com"}); got.Total != 2 {
		t.Errorf("site filter total = %d, want 2", got.Total)
	}
	if got := e.Chains(ChainsQuery{Receiver: "tracker.com"}); got.Total != 6 {
		t.Errorf("receiver filter total = %d, want 6", got.Total)
	}
	if got := e.Chains(ChainsQuery{ChainContains: "news.com"}); got.Total != 2 {
		t.Errorf("chain-contains total = %d, want 2", got.Total)
	}
	// tracker.com accumulates A&A observations with zero non-A&A, so it
	// lands in D′ and every socket is A&A-received.
	if got := e.Chains(ChainsQuery{AA: "received"}); got.Total != 6 {
		t.Errorf("aa=received total = %d, want 6", got.Total)
	}
	if got := e.Chains(ChainsQuery{AA: "none"}); got.Total != 0 {
		t.Errorf("aa=none total = %d, want 0", got.Total)
	}
	blocked := true
	if got := e.Chains(ChainsQuery{Blocked: &blocked}); got.Total != 3 {
		t.Errorf("blocked filter total = %d, want 3 (page 0 of each site)", got.Total)
	}
	if got := e.Chains(ChainsQuery{Limit: 2}); got.Total != 6 || len(got.Sockets) != 2 {
		t.Errorf("limit: total %d, listed %d", got.Total, len(got.Sockets))
	}

	groups := e.Chains(ChainsQuery{GroupBy: "site"})
	if len(groups.Groups) != 3 || groups.Sockets != nil {
		t.Fatalf("groupBy site: %+v", groups)
	}
	for _, g := range groups.Groups {
		if g.Sockets != 2 || g.Blocked != 1 {
			t.Errorf("group %+v, want 2 sockets / 1 blocked", g)
		}
	}
	pair := e.Chains(ChainsQuery{GroupBy: "pair"})
	if len(pair.Groups) != 1 || pair.Groups[0].Key != "tracker.com -> tracker.com" || pair.Groups[0].Sockets != 6 {
		t.Errorf("groupBy pair: %+v", pair.Groups)
	}
}

func TestEngineLabels(t *testing.T) {
	e := NewEngine(queryStore(t))
	rows := e.Labels(LabelsQuery{})
	byDom := map[string]LabelRow{}
	for _, r := range rows {
		byDom[r.Domain] = r
	}
	tr, ok := byDom["tracker.com"]
	if !ok || !tr.AA || tr.AAObs == 0 {
		t.Errorf("tracker.com row: %+v", tr)
	}
	cdn, ok := byDom["cdn.com"]
	if !ok || cdn.AA || cdn.NonAA == 0 {
		t.Errorf("cdn.com row: %+v", cdn)
	}
	if only := e.Labels(LabelsQuery{OnlyAA: true}); len(only) != 1 || only[0].Domain != "tracker.com" {
		t.Errorf("onlyAA: %+v", only)
	}
}

// TestLabelsOneFoldVersion: while a crawl keeps folding, every label
// row pairs a domain's counts with the verdict the §3.2 rule gives on
// those same counts, never counts from one fold version and D′ from
// another. Each domain's verdict flips twice as the records land.
func TestLabelsOneFoldVersion(t *testing.T) {
	st, err := Open(Config{Dir: t.TempDir(), Meta: testMeta(), SegmentPages: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	const domains = 200
	var recs []*analysis.PageRecord
	for i := 0; i < 2*domains; i++ {
		rec := testRecord(fmt.Sprintf("site%d.com", i), i+1, 0)
		flip := fmt.Sprintf("flip%d.com", i/2)
		if i%2 == 0 {
			rec.AAObs = []analysis.Count{{Key: flip, N: 1}} // into D′
		} else {
			rec.NonAAObs = []analysis.Count{{Key: flip, N: 100}} // out again
		}
		recs = append(recs, rec)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range recs {
			if _, err := st.Ingest(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for checked := false; ; checked = true {
		select {
		case <-done:
			if checked {
				return
			}
		default:
		}
		for _, r := range e.Labels(LabelsQuery{}) {
			if want := r.AAObs > 0 && float64(r.AAObs) >= labeler.Threshold*float64(r.NonAA); r.AA != want {
				t.Fatalf("label row %+v: the §3.2 rule on its counts says aa=%v", r, want)
			}
		}
	}
}

// tableRecords are allRecords plus sockets between several initiators
// and A&A receivers, so Tables 2–4 rank more rows than the smallest
// cuts keep and Table 4 still ends in its self-aggregate row.
func tableRecords() []*analysis.PageRecord {
	recs := allRecords()
	for j, rec := range recs {
		aa := map[string]int{}
		for _, c := range rec.AAObs {
			aa[c.Key] = c.N
		}
		for k := 0; k <= j%3; k++ {
			init, recv := fmt.Sprintf("ads%d.com", (j+k)%4), fmt.Sprintf("rt%d.com", (j*k+k)%5)
			rec.Sockets = append(rec.Sockets, analysis.SocketRecord{
				Site: rec.Site, Rank: rec.Rank, PageURL: rec.PageURL,
				URL: "wss://" + recv + "/s", ReceiverDomain: recv, InitiatorDomain: init,
				ChainDomains: []string{rec.Site, init}, CrossOrigin: true, HandshakeOK: true,
				ChainBlocked: k == 1, FramesSent: k, FramesRecv: 1,
				SentItems: []string{"cookies"}, RecvClasses: []string{"html"},
			})
			aa[recv]++
			if k%2 == 0 {
				aa[init]++
			}
		}
		rec.AAObs = analysis.AppendCounts(nil, aa)
	}
	return recs
}

// tableStore is a writable store holding tableRecords.
func tableStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(Config{Dir: t.TempDir(), Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range tableRecords() {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// tableTops are the /tables cuts the differential checks: the default,
// cuts below and at the report's 15, and one above every table's size.
var tableTops = []int{0, 1, 3, 15, 10000}

// checkTables is the /tables differential: for Tables 1–5, every cut
// in tableTops and both formats, the served body must equal
// analysis.Sections' Build over want, encoded as the handler encodes
// it. A view kept from an older snapshot fails it.
func checkTables(t *testing.T, url string, want *analysis.Dataset) {
	t.Helper()
	for n := 1; n <= 5; n++ {
		sec := analysis.Lookup("table", fmt.Sprint(n))
		for _, top := range tableTops {
			rows, text := sec.Build(top, want)
			js := encodeIndented(t, rows)
			path := fmt.Sprintf("%s/tables?table=%d&top=%d", url, n, top)
			if status, body := get(t, path); status != http.StatusOK || !bytes.Equal(body, js) {
				t.Errorf("%s: status %d, body differs from Build:\n%s\nwant:\n%s", path, status, body, js)
			}
			if status, body := get(t, path+"&format=text"); status != http.StatusOK || string(body) != text {
				t.Errorf("%s&format=text: status %d, body differs from Build:\n%s\nwant:\n%s", path, status, body, text)
			}
		}
	}
}

// encodeIndented is v as json.Encoder with SetIndent("", " ") writes
// it: the bytes every JSON query response must be.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkQueries is the differential for the other JSON endpoints: each
// served /chains, /sites, /labels and /storestats body must equal
// encodeIndented over what a fresh engine on st returns for the same
// query.
func checkQueries(t *testing.T, url string, st *Store) {
	t.Helper()
	e := NewEngine(st)
	yes, no := true, false
	for _, c := range []struct {
		path string
		want any
	}{
		{"/chains", e.Chains(ChainsQuery{})},
		{"/chains?limit=2", e.Chains(ChainsQuery{Limit: 2})},
		{"/chains?groupBy=site", e.Chains(ChainsQuery{GroupBy: "site"})},
		{"/chains?aa=initiated&groupBy=initiator", e.Chains(ChainsQuery{AA: "initiated", GroupBy: "initiator"})},
		{"/chains?groupBy=receiver&blocked=false", e.Chains(ChainsQuery{GroupBy: "receiver", Blocked: &no})},
		{"/chains?groupBy=pair&limit=50", e.Chains(ChainsQuery{GroupBy: "pair", Limit: 50})},
		{"/chains?groupBy=recvClass&crossOrigin=true", e.Chains(ChainsQuery{GroupBy: "recvClass", CrossOrigin: &yes})},
		{"/chains?site=nomatch.com&groupBy=pair", e.Chains(ChainsQuery{Site: "nomatch.com", GroupBy: "pair"})},
		{"/sites", e.Sites(SitesQuery{})},
		{"/sites?withSockets=true&minRank=2", e.Sites(SitesQuery{WithSockets: true, MinRank: 2})},
		{"/sites?domain=nomatch.com", e.Sites(SitesQuery{Domain: "nomatch.com"})},
		{"/labels", e.Labels(LabelsQuery{})},
		{"/labels?onlyAA=true", e.Labels(LabelsQuery{OnlyAA: true})},
		{"/storestats", st.Stats()},
	} {
		want := encodeIndented(t, c.want)
		if status, body := get(t, url+c.path); status != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("%s: status %d, body differs from the engine's result:\n%s\nwant:\n%s", c.path, status, body, want)
		}
	}
}

// TestEngineSnapshotCache: queries between ingests reuse one snapshot
// and its views; an ingest invalidates both.
func TestEngineSnapshotCache(t *testing.T) {
	st := tableStore(t)
	e := NewEngine(st)
	srv := httptest.NewServer(NewHandler(st))
	defer srv.Close()
	ds0, _ := st.Dataset()
	checkTables(t, srv.URL, ds0)
	checkQueries(t, srv.URL, st)
	ds1, _ := e.Dataset()
	ds2, _ := e.Dataset()
	if ds1 != ds2 {
		t.Error("unchanged store rebuilt its snapshot")
	}
	if _, err := st.Ingest(testRecord("fresh.com", 9, 0)); err != nil {
		t.Fatal(err)
	}
	ds3, _ := e.Dataset()
	if ds3 == ds1 {
		t.Error("snapshot not invalidated by ingest")
	}
	if len(ds3.Sites) != len(ds1.Sites)+1 {
		t.Errorf("new snapshot has %d sites, want %d", len(ds3.Sites), len(ds1.Sites)+1)
	}
	checkTables(t, srv.URL, ds3)
	checkQueries(t, srv.URL, st)
	var labels []LabelRow
	if _, body := get(t, srv.URL+"/labels?domain=tracker.com"); json.Unmarshal(body, &labels) != nil || len(labels) != 1 {
		t.Fatalf("/labels?domain=tracker.com: %s", body)
	}
	want := NewEngine(st).Labels(LabelsQuery{Domain: "tracker.com"})
	if labels[0] != want[0] {
		t.Errorf("/labels after ingest: %+v, a fresh engine says %+v", labels[0], want[0])
	}
}

// TestEngineViewsHeldOnce: however many distinct cuts are asked for,
// an unchanged snapshot holds one row set per table and one label
// list, each built once.
func TestEngineViewsHeldOnce(t *testing.T) {
	e := NewEngine(tableStore(t))
	held := func() (*snapshot, int) {
		e.mu.Lock()
		snap := e.snap
		e.mu.Unlock()
		size := 0
		for i := range snap.tables {
			b, err := json.Marshal(snap.tables[i].v)
			if err != nil {
				t.Fatal(err)
			}
			size += len(b)
		}
		b, err := json.Marshal(snap.labels.v)
		if err != nil {
			t.Fatal(err)
		}
		return snap, size + len(b)
	}
	query := func(top int) {
		for n := 1; n <= 5; n++ {
			sec, rows, ok := e.Table(n)
			if !ok {
				t.Fatalf("table %d missing", n)
			}
			sec.Cut(rows, top)
		}
		e.Labels(LabelsQuery{OnlyAA: top%2 == 0})
	}
	query(0)
	snap0, size0 := held()
	for top := 1; top <= 1000; top++ {
		query(top)
	}
	snap1, size1 := held()
	if snap1 != snap0 || size1 != size0 {
		t.Errorf("after 1000 distinct cuts the engine holds %d bytes of views (snapshot replaced: %v), want %d", size1, snap1 != snap0, size0)
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHTTPQueryService(t *testing.T) {
	st := queryStore(t)
	srv := httptest.NewServer(NewHandler(st))
	defer srv.Close()

	// /dataset must serve exactly the store-derived dataset bytes — the
	// oracle-comparison endpoint.
	ds, _ := st.Dataset()
	status, body := get(t, srv.URL+"/dataset")
	if status != http.StatusOK || !bytes.Equal(body, datasetBytes(t, ds)) {
		t.Errorf("/dataset: status %d, byte match %v", status, bytes.Equal(body, datasetBytes(t, ds)))
	}

	status, body = get(t, srv.URL+"/tables?table=1&format=text")
	if status != http.StatusOK || !strings.Contains(string(body), "% Sites w/ Sockets") {
		t.Errorf("/tables text: status %d body %q", status, body)
	}
	status, body = get(t, srv.URL+"/tables?table=5")
	if status != http.StatusOK || !json.Valid(body) {
		t.Errorf("/tables json: status %d", status)
	}
	if status, _ := get(t, srv.URL+"/tables?table=9"); status != http.StatusBadRequest {
		t.Errorf("/tables?table=9 status %d, want 400", status)
	}

	status, body = get(t, srv.URL+"/sites?withSockets=true")
	var sites []analysis.SiteSummary
	if status != http.StatusOK || json.Unmarshal(body, &sites) != nil || len(sites) != 3 {
		t.Errorf("/sites: status %d, %d sites", status, len(sites))
	}

	status, body = get(t, srv.URL+"/chains?groupBy=receiver")
	var chains ChainsResult
	if status != http.StatusOK || json.Unmarshal(body, &chains) != nil || chains.Total != 6 {
		t.Errorf("/chains: status %d total %d", status, chains.Total)
	}
	if status, _ := get(t, srv.URL+"/chains?aa=nope"); status != http.StatusBadRequest {
		t.Errorf("/chains bad aa: status %d, want 400", status)
	}

	// A malformed parameter is a 400 naming it, never its default.
	for _, c := range []struct{ path, param string }{
		{"/tables?table=2&top=abc", "top"},
		{"/tables?table=2&format=text&top=1.5", "top"},
		{"/sites?minRank=1O", "minRank"},
		{"/sites?maxRank=-", "maxRank"},
		{"/sites?withSockets=1", "withSockets"},
		{"/chains?limit=ten", "limit"},
		{"/chains?crossOrigin=yes", "crossOrigin"},
		{"/chains?groupBy=site&blocked=TRUE", "blocked"},
		{"/labels?onlyAA=on", "onlyAA"},
	} {
		if status, body := get(t, srv.URL+c.path); status != http.StatusBadRequest || !strings.HasPrefix(string(body), c.param+" must be ") {
			t.Errorf("%s: status %d %q, want 400 naming %s", c.path, status, body, c.param)
		}
	}

	status, body = get(t, srv.URL+"/labels?onlyAA=true")
	var labels []LabelRow
	if status != http.StatusOK || json.Unmarshal(body, &labels) != nil || len(labels) != 1 {
		t.Errorf("/labels: status %d rows %d", status, len(labels))
	}

	status, body = get(t, srv.URL+"/storestats")
	var stats Stats
	if status != http.StatusOK || json.Unmarshal(body, &stats) != nil || stats.Pages != 12 {
		t.Errorf("/storestats: status %d %+v", status, stats)
	}
}

// TestHTTPRefreshFollowsSeals: a query service over a read-only store
// picks up segments sealed after it started via /refresh — the
// live-crawl query path across processes.
func TestHTTPRefreshFollowsSeals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Meta: testMeta()})
	if err != nil {
		t.Fatal(err)
	}
	recs := tableRecords()
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
	srv := httptest.NewServer(NewHandler(ro))
	defer srv.Close()
	// Build the reader's views before the refresh, so a view that
	// outlived its snapshot would show in the differential below.
	first, _ := st.Dataset()
	checkTables(t, srv.URL, first)

	for _, rec := range recs[6:] {
		if _, err := st.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, srv.URL+"/refresh")
	var stats Stats
	if status != http.StatusOK || json.Unmarshal(body, &stats) != nil || stats.Pages != len(recs) {
		t.Fatalf("/refresh: status %d %+v, want %d pages", status, stats, len(recs))
	}
	_, body = get(t, srv.URL+"/dataset")
	want, _ := st.Dataset()
	if !bytes.Equal(body, datasetBytes(t, want)) {
		t.Error("reader /dataset differs from writer's dataset after refresh")
	}
	checkTables(t, srv.URL, want)
	checkQueries(t, srv.URL, ro)
}

// bufferWriter is a reusable http.ResponseWriter, so a measured request
// costs only what the handler does.
type bufferWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *bufferWriter) Header() http.Header         { return w.header }
func (w *bufferWriter) WriteHeader(status int)      { w.status = status }
func (w *bufferWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// serveBuffered serves one request through h into w, reset first.
func serveBuffered(h http.Handler, w *bufferWriter, req *http.Request) {
	clear(w.header)
	w.status = http.StatusOK
	w.body.Reset()
	h.ServeHTTP(w, req)
}

// TestCachedQueryAllocs pins what a repeated query costs on an
// unchanged snapshot: parse the URL, cut or filter a view, marshal,
// indent. The rows are the bench's store_read mix; each bound is the
// count measured with go1.24 plus 3. A per-socket key creeping back
// into the chains group-by adds one allocation per matching socket,
// and recomputing a table's rows or the label list per request adds
// 7 or more, so either fails the pin.
func TestCachedQueryAllocs(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("encoding/json's sync.Pool drops items at random under the race detector")
			}
		}
	}
	h := NewHandler(tableStore(t))
	w := &bufferWriter{header: http.Header{}}
	for _, c := range []struct {
		path  string
		bound float64
	}{
		{"/tables?table=1", 5 + 3},
		{"/tables?table=2&top=15", 7 + 3},
		{"/tables?table=5", 5 + 3},
		{"/chains?aa=initiated&groupBy=initiator", 16 + 3},
		{"/chains?groupBy=pair&limit=50", 38 + 3},
		{"/sites?withSockets=true", 9 + 3},
		{"/labels?onlyAA=true", 11 + 3},
		{"/storestats", 3 + 3},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		serveBuffered(h, w, req) // builds the snapshot and the view
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, w.status)
		}
		if avg := testing.AllocsPerRun(200, func() { serveBuffered(h, w, req) }); avg > c.bound {
			t.Errorf("%s allocates %.1f per request, want <= %.0f", c.path, avg, c.bound)
		}
	}
}
