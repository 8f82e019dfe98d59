package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/obs"
)

// A crawl's progress lives in its store: each settled attempt's outcome
// row, sealed with its site's pages. These tests keep the names of the
// checkpoint file's tests, and hold the store to what that file promised.

// TestCheckpointRoundTrip: the progress a ledger commits — done sites,
// a failed site's error, the attempts an unfinished site settled — comes
// back on a resume as the same queue, and the commits leave no temp
// droppings beside the store's files.
func TestCheckpointRoundTrip(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	for i := 0; i < 4; i++ {
		for p := 0; p < ledgerPages; p++ {
			r.append(i, p)
		}
	}
	r.settle(
		colstore.Outcome{Domain: ledgerSite(0), Attempt: 1, State: colstore.OutcomeDone},
		colstore.Outcome{Domain: ledgerSite(1), Attempt: 2, State: colstore.OutcomeDone},
		colstore.Outcome{Domain: ledgerSite(2), Attempt: 3, State: colstore.OutcomeFailed, Err: "boom"},
		colstore.Outcome{Domain: ledgerSite(3), Attempt: 1, State: colstore.OutcomeRetry, Err: "reset"},
	)
	r.commit()
	r.open(true)
	defer r.l.Close()
	want := map[string]jobRec{
		ledgerSite(0): {Domain: ledgerSite(0), State: "done", Attempts: 1},
		ledgerSite(1): {Domain: ledgerSite(1), State: "done", Attempts: 2},
		ledgerSite(2): {Domain: ledgerSite(2), State: "failed", Attempts: 3, LastErr: "boom"},
		ledgerSite(3): {Domain: ledgerSite(3), State: "pending", Attempts: 1, LastErr: "reset"},
	}
	for _, got := range jobsOf(r.q) {
		if w, ok := want[got.Domain]; ok && got != w || !ok && got != (jobRec{Domain: got.Domain, State: "pending"}) {
			t.Errorf("resumed %+v, want %+v", got, w)
		}
	}
	if r.resumedDone != 2 {
		t.Errorf("resumed %d done sites, want 2", r.resumedDone)
	}
	entries, _ := os.ReadDir(r.l.cfg.StoreDir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestCheckpointCompatible exercises every identity arm: a resume that
// names another crawl, seed, page budget or site count than the store
// pins is refused with the wrong-crawl hint. A local crawl and a fabric
// coordinator pin one identity, so there is no role row.
func TestCheckpointCompatible(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(cfg *LedgerConfig)
		expect string // "" = compatible
	}{
		{"same", func(*LedgerConfig) {}, ""},
		{"name", func(c *LedgerConfig) { c.Meta.Name = "other" }, `crawl "other"`},
		{"seed", func(c *LedgerConfig) { c.Seed = 2 }, "seed 2"},
		{"pages", func(c *LedgerConfig) { c.PagesPerSite = 5 }, "5 pages"},
		{"totalSites", func(c *LedgerConfig) { c.TotalSites = 99 }, "99 sites"},
	} {
		dir := t.TempDir()
		l, err := OpenLedger(ledgerConfig(dir, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := ledgerConfig(dir, true)
		tc.mutate(&cfg)
		l, err = OpenLedger(cfg)
		if tc.expect == "" {
			if err != nil {
				t.Errorf("%s: compatible resume refused: %v", tc.name, err)
			} else {
				l.Close()
			}
			continue
		}
		var ce *CheckpointError
		if !errors.As(err, &ce) || ce.Hint != hintWrongCrawl || ce.Path != cfg.StoreDir {
			t.Errorf("%s: error %v (%T), want a *CheckpointError on %s with the wrong-crawl hint", tc.name, err, err, cfg.StoreDir)
			continue
		}
		if !strings.Contains(err.Error(), tc.expect) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.expect)
		}
	}
}

// writeManifest replaces the store manifest of the ledger test crawl in
// dir with body.
func writeManifest(t *testing.T, dir, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "store", "store.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCheckpointRejectsBadVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, `{"version": 99}`)
	if _, err := OpenLedger(ledgerConfig(dir, true)); err == nil {
		t.Error("future store version accepted")
	}
}

// TestLoadCheckpointAcrossVersions: the v4 store build reads v4 stores
// only. State an older build left — a v1, v2 or v3 store, the last with
// the v5 checkpoint file that vouched for its segments beside it — is
// refused loudly with the store's version and the start-fresh hint
// instead of resuming, and no file changes.
func TestLoadCheckpointAcrossVersions(t *testing.T) {
	for _, tc := range []struct {
		version int
		body    string
	}{
		{1, `{"version":1,"name":"ledger-test","era":"pre-patch","crawlIndex":0,"numShards":8}`},
		{2, `{"version":2,"name":"ledger-test","era":"pre-patch","crawlIndex":0}`},
		{3, `{"version":3,"name":"ledger-test","era":"pre-patch","crawlIndex":0,"seed":7,"pagesPerSite":3,"totalSites":9}`},
	} {
		r := &ledgerRun{t: t, dir: t.TempDir()}
		r.open(false)
		r.crawl(0, 4)
		writeManifest(t, r.dir, tc.body+"\n")
		if err := os.WriteFile(filepath.Join(r.dir, "cp.json"), []byte(`{"version":5,"name":"ledger-test","seed":7,"pagesPerSite":3,"totalSites":9,"done":["site00.com"],"segments":2}`), 0o644); err != nil {
			t.Fatal(err)
		}
		before := ledgerState(t, r.dir)
		_, err := OpenLedger(ledgerConfig(r.dir, true))
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Errorf("err = %v (%T), want *CheckpointError\n%s", err, err, tc.body)
			continue
		}
		if ce.Version != tc.version || !strings.Contains(ce.Error(), "reads v4") || ce.Hint != hintStartFresh {
			t.Errorf("error %q lacks the version, the reason or the start-fresh hint", ce)
		}
		if !bytes.Equal(before, ledgerState(t, r.dir)) {
			t.Error("a refused resume changed a file")
		}
	}
}

// FuzzLoadCheckpoint feeds a resume hostile bytes as its store's
// manifest — the crawl identity the checkpoint's header used to carry.
// The resume must open exactly when the bytes decode to this build's
// version and the crawl's identity; any other bytes are refused with a
// *CheckpointError and every file as it was.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":4,"name":"ledger-test","era":"pre-patch","crawlIndex":0,"seed":7,"pagesPerSite":3,"totalSites":9}`))
	f.Add([]byte(`{"version":4,"name":"ledger-test","era":"pre-patch","crawlIndex":0,"seed":8,"pagesPerSite":3,"totalSites":9}`))
	f.Add([]byte(`{"version":3,"name":"ledger-test","era":"pre-patch","crawlIndex":0,"seed":7,"pagesPerSite":3,"totalSites":9}`))
	f.Add([]byte(`{"VERSION":4,"Name":"ledger-test","era":"pre-patch","seed":7,"pagesPerSite":3,"totalSites":9,"done":[]} `))
	f.Add([]byte(`{"version":4,"name":"\ud800","seed":7} trailing`))
	f.Add([]byte(`{]`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		cfg := ledgerConfig(dir, false)
		l, err := OpenLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		writeManifest(t, dir, string(manifest))
		var m struct {
			Version      int    `json:"version"`
			Name         string `json:"name"`
			Era          string `json:"era,omitempty"`
			CrawlIndex   int    `json:"crawlIndex"`
			Seed         int64  `json:"seed"`
			PagesPerSite int    `json:"pagesPerSite"`
			TotalSites   int    `json:"totalSites"`
		}
		open := json.Unmarshal(manifest, &m) == nil && m.Version == colstore.ManifestVersion &&
			m.Name == cfg.Meta.Name && m.Era == cfg.Meta.Era && m.CrawlIndex == cfg.Meta.CrawlIndex &&
			m.Seed == cfg.Seed && m.PagesPerSite == cfg.PagesPerSite && m.TotalSites == cfg.TotalSites

		before := ledgerState(t, dir)
		cfg.Resume = true
		l, err = OpenLedger(cfg)
		if err == nil {
			l.Close()
			if !open {
				t.Fatalf("resumed over the manifest %q", manifest)
			}
			return
		}
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
		}
		if open {
			t.Fatalf("refused the crawl's own manifest %q: %v", manifest, err)
		}
		if !bytes.Equal(before, ledgerState(t, dir)) {
			t.Fatal("a refused resume changed a file")
		}
	})
}

// TestWriteAtomicSyncsParentDir: rename-based atomic writes are only
// crash-durable once the parent directory's entry is synced — without
// it, power loss after the rename can leave the directory pointing at
// the old file or at nothing. The dir-sync helper counts each
// successful directory sync in store.dir_syncs; every commit that seals
// must perform one.
func TestWriteAtomicSyncsParentDir(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	defer r.l.Close()
	r.append(0, 0)
	r.settle(colstore.Outcome{Domain: ledgerSite(0), Attempt: 1, State: colstore.OutcomeDone})
	before := obs.Default.Snapshot().Counters["store.dir_syncs"]
	if err := r.l.Commit(); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters["store.dir_syncs"]
	if after <= before {
		t.Errorf("Commit did not sync the store directory (store.dir_syncs %d -> %d)", before, after)
	}
}

// TestCheckpointExtentsCoverBufferedGroups pins the Commit audit: a
// commit seals the group of records still buffered in the store's
// unsealed segment together with the outcome rows appended after them,
// so it never marks a site done whose pages are only buffered. This
// test leaves appends in the buffer (too few to trip an auto-seal),
// settles the site, commits, and requires the one sealed segment to hold
// every page and the row.
func TestCheckpointExtentsCoverBufferedGroups(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	l, err := OpenLedger(LedgerConfig{Meta: ledgerMeta, Seed: 1, PagesPerSite: 5, TotalSites: 1, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.AppendLine("pub.com", recordLine(t, rec("pub.com", fmt.Sprintf("http://pub.com/p%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Precondition: the appends really are sitting in the buffer.
	if segs, _ := filepath.Glob(filepath.Join(storeDir, "seg-*.col")); len(segs) != 0 || l.Store().Stats().Pending != 5 {
		t.Fatalf("%d segments on disk and %d records buffered before any commit; the store did not buffer", len(segs), l.Store().Stats().Pending)
	}
	if err := l.Settled([]colstore.Outcome{{Domain: "pub.com", Attempt: 1, State: colstore.OutcomeDone}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments on disk, want the 1 the commit sealed", len(segs))
	}
	recs, rows, err := colstore.ReadSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || len(rows) != 1 || rows[0].Domain != "pub.com" {
		t.Errorf("the sealed segment holds %d pages and rows %+v, want the 5 appended before the commit and pub.com's row", len(recs), rows)
	}
}

func TestWriteAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := colstore.WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "original")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the original intact and clean up its
	// temp file.
	err := colstore.WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return errors.New("write failed")
	})
	if err == nil || !strings.Contains(err.Error(), "write failed") {
		t.Fatalf("err = %v", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "original" {
		t.Errorf("original clobbered: %q", data)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}
