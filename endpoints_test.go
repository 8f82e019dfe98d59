package repro

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/obs"
)

// queryRoute is a path in the first column of OPERATIONS.md's query
// service table.
var queryRoute = regexp.MustCompile("(?m)^\\| `(/[a-z]+)[`?]")

// debugPath is a /debug/… path OPERATIONS.md names, with its query.
var debugPath = regexp.MustCompile(`/debug/[a-z/]*(\?[a-z]+=[0-9a-z]+)?`)

// TestDocumentedEndpointsAreServed holds OPERATIONS.md's endpoints to
// the handlers, as TestMetricCatalogueMatchesDocs holds its metric
// names to the registry: every path of the query-service table gets a
// non-404 answer from colstore.NewHandler over a small sealed store, and
// every /debug/… path the runbook names gets one from obs.Serve. A route
// renamed or dropped on either side fails here. Documented queries are
// sent as written, except that the CPU profile runs for one second
// (the runbook's example asks for ten, its default is thirty).
func TestDocumentedEndpointsAreServed(t *testing.T) {
	raw, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	_, section, ok := strings.Cut(doc, "\n## Query service\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "Query service" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var routes []string
	for _, m := range queryRoute.FindAllStringSubmatch(section, -1) {
		routes = append(routes, m[1])
	}
	if len(routes) == 0 {
		t.Fatal("no query-service routes found in OPERATIONS.md")
	}

	meta := analysis.DatasetMeta{Name: "endpoints", Era: "pre-patch"}
	store, err := colstore.Open(colstore.Config{Dir: filepath.Join(t.TempDir(), "store"), Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec := &analysis.PageRecord{Site: "pub.example", Rank: 1, PageURL: "http://pub.example/",
		AAObs: map[string]int{"tracker.example": 1}}
	if _, err := store.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	handler := colstore.NewHandler(store)
	for _, route := range routes {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, route, nil))
		if w.Code == http.StatusNotFound {
			t.Errorf("query service: GET %s = 404, but OPERATIONS.md documents it", route)
		}
		t.Logf("query service: GET %s = %d", route, w.Code)
	}

	srv, err := obs.Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	debug := map[string]bool{}
	for _, p := range debugPath.FindAllString(doc, -1) {
		u, err := url.Parse("http://" + srv.Addr() + p)
		if err != nil {
			t.Fatal(err)
		}
		if u.Path == "/debug/pprof/profile" {
			u.RawQuery = "seconds=1"
		}
		debug[u.String()] = true
	}
	if len(debug) == 0 {
		t.Fatal("no /debug/ paths found in OPERATIONS.md")
	}
	for p := range debug {
		resp, err := http.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("metrics endpoint: GET %s = 404, but OPERATIONS.md names it", p)
		}
		t.Logf("metrics endpoint: GET %s = %d", p, resp.StatusCode)
	}
}
