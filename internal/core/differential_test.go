package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/webgen"
)

// runPipeline runs one dispatched crawl on the shipping plane or the
// reference plane (pagePlane.reference) and returns the dataset's exact
// JSON bytes.
func runPipeline(t *testing.T, reference bool) []byte {
	t.Helper()
	res, err := runCrawl(context.Background(), Options{
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
