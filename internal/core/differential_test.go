package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/webgen"
)

// newReferencePlane builds the retained seed plane: wire fetches and
// WebSockets through the full TCP + net/http stack, fresh per-page
// scratch, un-pooled recorder. The durable ledger under it is the
// shipping one. It produces the same bytes as the shipping plane and
// exists only as the differential oracle proving that.
func newReferencePlane(opts Options, spec CrawlSpec) (*pagePlane, error) {
	p, err := newPagePlane(opts, spec)
	if err != nil {
		return nil, err
	}
	p.recorder = &analysis.Recorder{Label: p.recorder.Label}
	p.newBrowser = func(cfg browser.Config) *browser.Browser {
		cfg.ReuseScratch = false
		cfg.Fetch, cfg.DialWS = nil, nil
		return browser.New(cfg)
	}
	return p, nil
}

// crawlPlane crawls on a shipping or reference plane the way RunCrawl
// does.
func crawlPlane(ctx context.Context, opts Options, spec CrawlSpec, reference bool) (*CrawlResult, error) {
	build := newPagePlane
	if reference {
		build = newReferencePlane
	}
	plane, err := build(opts, spec)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	return plane.crawl(ctx)
}

// runPipeline runs one dispatched crawl on the shipping plane or the
// reference plane and returns the dataset's exact JSON bytes.
func runPipeline(t *testing.T, reference bool) []byte {
	t.Helper()
	res, err := crawlPlane(context.Background(), Options{
		Seed: 4242, NumPublishers: 18, Workers: 4, PagesPerSite: 3,
		Dispatch: &DispatchOptions{
			StateDir: filepath.Join(t.TempDir(), "state"),
		},
	}, CrawlSpec{Name: "diff-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}, reference)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineDifferential is the page plane's non-negotiable
// invariant: the shipping plane — in-process fetches, per-page scratch
// reuse, pooled recorder, group-committed spool — produces a
// byte-identical dataset to the retained seed/reference plane. Every
// pooling or batching optimization must preserve this; a single leaked
// scratch byte or reordered record fails here.
func TestPipelineDifferential(t *testing.T) {
	reference := runPipeline(t, true)
	optimized := runPipeline(t, false)
	if !bytes.Equal(reference, optimized) {
		t.Fatalf("optimized pipeline dataset differs from reference: %d bytes vs %d bytes",
			len(optimized), len(reference))
	}
}
