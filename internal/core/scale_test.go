package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// crawlCost is what one store-backed crawl cost, per site.
type crawlCost struct {
	allocs, spoolBytes, segmentBytes, segmentFiles float64
}

// TestCrawlScales is the page plane's half of the scaling gate: one
// store-backed crawl of the real plane at 60 and at 480 publishers × 2
// pages, and per site, each of these stays within 1.25× between the two
// sizes — heap allocations from the first lease to the rendered report
// (page loads, the fold and the store's ingest, Finalize with the
// labeler's D′ pass, Report), spool bytes, sealed segment bytes and
// segment files. World build, list parsing and server start are outside
// the counts, and one crawl worker makes the commits, so the seals, land
// on the same sites every run. Every other gate runs at 150 publishers or
// fewer.
func TestCrawlScales(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 540 publishers")
	}
	sizes := [2]int{60, 480}
	var costs [2]crawlCost
	for i, n := range sizes {
		costs[i] = measureCrawl(t, n)
		c := costs[i]
		t.Logf("%3d publishers, per site: %.0f allocs, %.0f spool B, %.0f segment B, %.3f segment files",
			n, c.allocs, c.spoolBytes, c.segmentBytes, c.segmentFiles)
	}
	small, large := costs[0], costs[1]
	for _, term := range []struct {
		name         string
		small, large float64
	}{
		{"allocations", small.allocs, large.allocs},
		{"spool bytes", small.spoolBytes, large.spoolBytes},
		{"segment bytes", small.segmentBytes, large.segmentBytes},
		{"segment files", small.segmentFiles, large.segmentFiles},
	} {
		if r := max(term.small, term.large) / min(term.small, term.large); r > 1.25 {
			t.Errorf("%s per site differ %.2f× between %d and %d publishers (limit 1.25×)", term.name, r, sizes[0], sizes[1])
		}
	}
}

// measureCrawl runs crawl 0 at the given size into a fresh state
// directory and charges its costs to the crawl's sites.
func measureCrawl(t *testing.T, publishers int) crawlCost {
	t.Helper()
	dir := t.TempDir()
	opts := Options{
		Seed: 20170419, NumPublishers: publishers, Workers: 1, PagesPerSite: 2,
		Store: true, Dispatch: &DispatchOptions{StateDir: dir},
	}
	spec := DefaultCrawls()[0]
	plane, err := newPagePlane(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := plane.crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Report(res.Dataset) == "" {
		t.Fatal("empty report")
	}
	runtime.ReadMemStats(&after)

	sites := float64(len(plane.sites))
	_, spoolBytes := dirFiles(t, opts.Dispatch.spoolDir(spec), "")
	segFiles, segBytes := dirFiles(t, opts.Dispatch.storeDir(spec), ".col")
	return crawlCost{
		allocs:       float64(after.Mallocs-before.Mallocs) / sites,
		spoolBytes:   float64(spoolBytes) / sites,
		segmentBytes: float64(segBytes) / sites,
		segmentFiles: float64(segFiles) / sites,
	}
}

// dirFiles counts dir's files whose names end in suffix and sums their
// sizes.
func dirFiles(t *testing.T, dir, suffix string) (files int, bytes int64) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		info, err := d.Info()
		if err == nil {
			files++
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, bytes
}
