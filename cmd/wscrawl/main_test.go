package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// crawlFlags is a crawl small enough to run in a unit test.
var crawlFlags = []string{"-publishers", "5", "-pages", "2", "-workers", "2"}

// wscrawl runs the command in-process from dir and returns what it
// printed to stderr, failing the test unless it exits with want.
func wscrawl(t *testing.T, dir string, want int, args ...string) string {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	code := run(args)
	os.Stderr = saved
	if err := os.Chdir(wd); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("wscrawl %s: exit %d, want %d\n%s", strings.Join(args, " "), code, want, out)
	}
	return string(out)
}

// entries lists a directory's names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	list, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range list {
		names = append(names, e.Name())
	}
	return names
}

// TestResumeRequiresLocation: -resume reads an interrupted crawl's
// store, so without -store-dir it is a usage error — not a fresh crawl
// that leaves state behind in the working directory — and so is
// -coordinate, whose state must outlive it. -checkpoint is no flag. A
// worker takes its fault profile from the coordinator, so -fault-profile
// on -worker is a usage error too, one that says where the profile goes.
func TestResumeRequiresLocation(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-out", "x.json", "-resume"},
		{"-out", "x.json", "-coordinate", "127.0.0.1:0"},
		{"-out", "x.json", "-checkpoint", "cp.json"},
		{"-worker", "ws://127.0.0.1:1/fabric", "-fault-profile", "flaky"},
	} {
		stderr := wscrawl(t, dir, 2, append(crawlFlags, args...)...)
		if args[0] == "-worker" && !strings.Contains(stderr, "set on -coordinate") {
			t.Errorf("a worker's -fault-profile refused without naming -coordinate:\n%s", stderr)
		}
	}
	if left := entries(t, dir); len(left) != 0 {
		t.Errorf("refused run left %v in the working directory", left)
	}
}

// TestPlainCrawlReportsSitesAndLeavesOnlyItsDataset: a crawl with no
// location runs through the same grant loop as a durable one, prints
// the same per-site outcome line, and leaves nothing behind but -out.
func TestPlainCrawlReportsSitesAndLeavesOnlyItsDataset(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	stderr := wscrawl(t, dir, 0, append(crawlFlags, "-out", "x.json")...)
	if !strings.Contains(stderr, "wscrawl: dispatch: ") || !strings.Contains(stderr, " sites done, 0 failed, ") {
		t.Errorf("no dispatch outcome line:\n%s", stderr)
	}
	if left := entries(t, dir); len(left) != 1 || left[0] != "x.json" {
		t.Errorf("working directory holds %v, want only x.json", left)
	}
	if left := entries(t, tmp); len(left) != 0 {
		t.Errorf("crawl left %v in the temp dir", left)
	}
}

// TestStoreDirAloneKeepsOnlyTheStore: -store-dir keeps the crawl's
// store — its one durable state, queryable after the run — and nothing
// else: no checkpoint file beside it, nothing in the temp dir.
func TestStoreDirAloneKeepsOnlyTheStore(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	stderr := wscrawl(t, dir, 0, append(crawlFlags, "-out", "x.json", "-store-dir", "st")...)
	if !strings.Contains(stderr, "columnar store sealed at st") {
		t.Errorf("no store line:\n%s", stderr)
	}
	if left := entries(t, dir); len(left) != 2 || left[0] != "st" || left[1] != "x.json" {
		t.Errorf("working directory holds %v, want st and x.json", left)
	}
	if left := entries(t, tmp); len(left) != 0 {
		t.Errorf("crawl left %v in the temp dir", left)
	}
	if st := entries(t, filepath.Join(dir, "st")); len(st) < 2 || st[len(st)-1] != "store.json" {
		t.Errorf("store directory holds %v, want sealed segments and store.json", st)
	}
}
