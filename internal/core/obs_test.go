package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/webgen"
)

// datasetBytes runs one dispatched crawl and returns its dataset's
// exact JSON serialization.
func datasetBytes(t *testing.T, stateDir string) []byte {
	t.Helper()
	res, err := RunCrawl(context.Background(), Options{
		Seed: 77, NumPublishers: 40, Workers: 6, PagesPerSite: 3,
		Dispatch: &DispatchOptions{
			CheckpointPath: filepath.Join(stateDir, "checkpoint.json"),
		},
	}, CrawlSpec{Name: "obs-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsDoNotPerturbDataset is the obs determinism invariant:
// running a crawl with the full observability stack active — live
// counters, a fast progress reporter, and the expvar/pprof endpoint —
// produces a byte-identical dataset to a crawl without any of it.
func TestMetricsDoNotPerturbDataset(t *testing.T) {
	plain := datasetBytes(t, t.TempDir())

	srv, err := obs.Serve("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep := obs.NewReporter(io.Discard, time.Millisecond, obs.Default)
	rep.Start()
	observed := datasetBytes(t, t.TempDir())
	rep.Stop()

	if !bytes.Equal(plain, observed) {
		t.Fatalf("dataset changed under observation: %d bytes vs %d bytes",
			len(plain), len(observed))
	}
}

// TestCrawlPopulatesMetrics sanity-checks the end-to-end wiring: after a
// real crawl the well-known counters, queue gauges, and stage
// histograms are all live.
func TestCrawlPopulatesMetrics(t *testing.T) {
	before := obs.Default.Snapshot()
	datasetBytes(t, t.TempDir())
	after := obs.Default.Snapshot()

	for _, name := range []string{obs.MPages, obs.MSites, obs.MBrowserRequests,
		obs.MServerRequests, obs.MStorePages, obs.MCheckpointWrites, obs.MMergePages,
		obs.MMatchRequests} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %s did not advance (%d -> %d)",
				name, before.Counters[name], after.Counters[name])
		}
	}
	total := after.Gauges[obs.MQueueTotal]
	if total < 40 { // 40 publishers plus the world's built-in sites
		t.Errorf("queue.total = %d, want >= 40", total)
	}
	if done := after.Gauges[obs.MQueueDone]; done != total {
		t.Errorf("queue.done = %d, want %d (all sites settled)", done, total)
	}
	for _, name := range []string{obs.MStageFetch, obs.MStageParse, obs.MStageTree,
		obs.MStageLabel, obs.MStoreSeal, obs.MStageCheckpoint, obs.MStageMerge,
		obs.MCrawlPage, obs.MCrawlVisit, obs.MCrawlRecord, obs.MCrawlCommit,
		obs.MMatchEval} {
		if after.Hists[name].Count <= before.Hists[name].Count {
			t.Errorf("histogram %s has no new observations", name)
		}
	}
	for _, name := range []string{obs.MMatchIndexRules, obs.MMatchIndexTokens} {
		if after.Gauges[name] <= 0 {
			t.Errorf("gauge %s = %d, want > 0 after a crawl", name, after.Gauges[name])
		}
	}
}

// documentedMetrics parses OPERATIONS.md's "Metric names" table into
// name → kind ("counter", "gauge", "histogram"). A row's first column
// holds its prefix (or prefixes); a backticked name in the second
// column that already contains a dot is taken whole, any other is
// appended to the row's single prefix.
func documentedMetrics(t *testing.T) map[string]string {
	t.Helper()
	_, table, ok := strings.Cut(operationsDoc(t), "### Metric names\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "### Metric names" section`)
	}
	backticked := regexp.MustCompile("`([^`]+)`")
	out := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(out) > 0 {
				break // end of the table
			}
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) != 3 || !strings.Contains(cols[0], "`") {
			continue // header and separator rows
		}
		var kind string
		switch k := strings.TrimSpace(cols[2]); {
		case strings.HasPrefix(k, "counter"):
			kind = "counter"
		case strings.HasPrefix(k, "gauge"):
			kind = "gauge"
		case strings.HasPrefix(k, "duration histogram"):
			kind = "histogram"
		default:
			t.Errorf("OPERATIONS.md metric row %q: kind %q is not counter/gauge/duration histogram", line, k)
			continue
		}
		prefixes := backticked.FindAllStringSubmatch(cols[0], -1)
		for _, m := range backticked.FindAllStringSubmatch(cols[1], -1) {
			name := m[1]
			if !strings.Contains(name, ".") {
				if len(prefixes) != 1 {
					t.Errorf("OPERATIONS.md metric row %q: short name %q needs exactly one prefix", line, name)
					continue
				}
				name = prefixes[0][1] + name
			}
			if _, dup := out[name]; dup {
				t.Errorf("OPERATIONS.md documents %s twice", name)
			}
			out[name] = kind
		}
	}
	return out
}

func operationsDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// troubleshootingMetrics returns the metric names OPERATIONS.md's two
// troubleshooting sections cite: every backticked lower-case dotted name
// (`crawl.commit`). Go identifiers (`webserver.Fetch`) carry a capital,
// and the sections write file names without backticks.
func troubleshootingMetrics(t *testing.T) []string {
	t.Helper()
	doc := operationsDoc(t)
	metric := regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`")
	var out []string
	for _, heading := range []string{"### Troubleshooting a slow crawl\n", "## Troubleshooting\n"} {
		_, section, ok := strings.Cut(doc, heading)
		if !ok {
			t.Fatalf("OPERATIONS.md has no %q section", strings.TrimSpace(heading))
		}
		section, _, _ = strings.Cut(section, "\n## ")
		for _, m := range metric.FindAllStringSubmatch(section, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// TestMetricCatalogueMatchesDocs holds OPERATIONS.md's "Metric names"
// table to the registry: after a crawl (which registers the lazily
// added queue.* function gauges) every registered metric is documented
// with its kind, and every documented metric is registered.
func TestMetricCatalogueMatchesDocs(t *testing.T) {
	datasetBytes(t, t.TempDir())
	snap := obs.Default.Snapshot()
	registered := map[string]string{}
	for name := range snap.Counters {
		registered[name] = "counter"
	}
	for name := range snap.Gauges {
		registered[name] = "gauge"
	}
	for name := range snap.Hists {
		registered[name] = "histogram"
	}
	documented := documentedMetrics(t)
	for name, kind := range registered {
		switch doc, ok := documented[name]; {
		case !ok:
			t.Errorf("%s (%s) is registered but not in OPERATIONS.md's metric table", name, kind)
		case doc != kind:
			t.Errorf("%s is a %s, OPERATIONS.md documents a %s", name, kind, doc)
		}
	}
	for name, kind := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("OPERATIONS.md documents %s (%s), which nothing registers", name, kind)
		}
	}
	cited := troubleshootingMetrics(t)
	for _, name := range cited {
		if _, ok := registered[name]; !ok {
			t.Errorf("OPERATIONS.md's troubleshooting cites %s, which nothing registers", name)
		}
	}
	t.Logf("troubleshooting cites %d metrics", len(cited))
}
