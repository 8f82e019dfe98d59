package dispatch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/obs"
)

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Name:         "crawl-1",
		Seed:         42,
		PagesPerSite: 15,
		TotalSites:   100,
		Done:         []string{"a.com", "b.com"},
		Failed:       map[string]string{"c.com": "boom"},
		Attempts:     map[string]int{"c.com": 3, "d.com": 1},
		Segments:     4,
	}
	if err := cp.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cp.Name || got.Seed != cp.Seed || len(got.Done) != 2 || got.Failed["c.com"] != "boom" || got.Attempts["d.com"] != 1 || got.Segments != 4 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
}

// TestCheckpointCompatible exercises every mismatch arm. A local crawl
// and a fabric coordinator write one header, so there is no role row.
func TestCheckpointCompatible(t *testing.T) {
	site := Checkpoint{Name: "x", Seed: 1, PagesPerSite: 15, TotalSites: 10}
	for _, tc := range []struct {
		name   string
		have   Checkpoint
		mutate func(want *Checkpoint)
		expect string // "" = compatible
	}{
		{"same", site, func(*Checkpoint) {}, ""},
		{"name", site, func(w *Checkpoint) { w.Name = "y" }, "crawl"},
		{"seed", site, func(w *Checkpoint) { w.Seed = 2 }, "seed"},
		{"pages", site, func(w *Checkpoint) { w.PagesPerSite = 5 }, "budget"},
		{"totalSites", site, func(w *Checkpoint) { w.TotalSites = 99 }, "sites"},
	} {
		want := tc.have
		tc.mutate(&want)
		err := tc.have.Compatible("cp.json", &want)
		if tc.expect == "" {
			if err != nil {
				t.Errorf("%s: compatible rejected: %v", tc.name, err)
			}
			continue
		}
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v (%T), want *CheckpointError", tc.name, err, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.expect) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.expect)
		}
	}
}

func TestLoadCheckpointRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("future version accepted")
	}
}

// TestLoadCheckpointAcrossVersions: the v5 build reads v5 only. A v1,
// v2 or v3 single-process file, a v3 coordinator's file (jobs were batch
// IDs), a file in the retired coordinator format that shared the v1
// number, and a v4 file of either role (it vouched for spool extents,
// not store segments) are refused loudly with the version and the
// start-fresh hint instead of resuming.
func TestLoadCheckpointAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		version int
		body    string
	}{
		{1, `{"version":1,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":3,"done":["a.com"]}`},
		{2, `{"version":2,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":3,"done":["a.com"],"shardBytes":[10,0]}`},
		{1, `{"version":1,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"batchSize":4,` +
			`"totalBatches":3,"totalSites":10,"batches":[{"domain":"b0001","state":"done"}],"shardBytes":[64,128]}`},
		{3, `{"version":3,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":3,"done":["a.com"],"shardBytes":[10,0]}`},
		{3, `{"version":3,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":10,"batchSize":4,` +
			`"done":["b0000"],"failedSites":{"x.com":"gone"},"shardBytes":[64,128]}`},
		{4, `{"version":4,"name":"c","seed":1,"numShards":8,"pagesPerSite":5,"totalSites":3,"done":["a.com"],` +
			`"attempts":{"b.com":1},"shardBytes":[10,0,0,0,0,0,0,0]}`},
	} {
		path := filepath.Join(dir, "cp.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Errorf("err = %v (%T), want *CheckpointError\n%s", err, err, tc.body)
			continue
		}
		if ce.Version != tc.version || !strings.Contains(ce.Error(), "reads v5 only") || ce.Hint != hintStartFresh {
			t.Errorf("error %q lacks the version, the reason or the start-fresh hint", ce)
		}
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint hostile bytes. It must refuse
// them with a *CheckpointError or return a checkpoint that WriteAtomic
// writes and LoadCheckpoint reads back unchanged: what a resume loads is
// what its next commit would write.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":5,"name":"crawl-1","seed":42,"pagesPerSite":5,"totalSites":4,` +
		`"done":["a.com","b.com"],"failed":{"c.com":"boom"},"attempts":{"d.com":1},"segments":3}`))
	f.Add([]byte(`{"version":4,"name":"crawl-1","seed":42,"numShards":2,"pagesPerSite":5,"totalSites":4,` +
		`"done":["a.com","b.com"],"failed":{"c.com":"boom"},"attempts":{"d.com":1},"shardBytes":[120,0]}`))
	f.Add([]byte(`{"version":3,"name":"pre-crawl-0","seed":42,"numShards":2,"pagesPerSite":5,"totalSites":10,` +
		`"batchSize":4,"done":["b0000"],"failedSites":{"x.com":"gone"},"shardBytes":[64,128]}`))
	f.Add([]byte(`{"version":2,"name":"c","done":null,"shardBytes":[]}`))
	f.Add([]byte(`{"version":5,"done":[],"failed":{},"VERSION":5,"name":"\ud800","shardBytes":[1]} trailing`))
	f.Add([]byte(`{]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cp.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
			}
			return
		}
		if err := cp.WriteAtomic(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("a loaded checkpoint does not load back: %v", err)
		}
		// omitempty writes an empty map as nothing.
		for _, c := range []*Checkpoint{cp, back} {
			if len(c.Failed) == 0 {
				c.Failed = nil
			}
			if len(c.Attempts) == 0 {
				c.Attempts = nil
			}
		}
		if !reflect.DeepEqual(cp, back) {
			t.Fatalf("checkpoint changed across WriteAtomic:\n%+v\n%+v", cp, back)
		}
	})
}

// TestWriteAtomicSyncsParentDir: rename-based atomic writes are only
// crash-durable once the parent directory's entry is synced — without
// it, power loss after the rename can leave the directory pointing at
// the old file or at nothing. The dir-sync helper counts each
// successful directory sync in store.dir_syncs; every checkpoint write
// must perform one.
func TestWriteAtomicSyncsParentDir(t *testing.T) {
	before := obs.Default.Snapshot().Counters["store.dir_syncs"]
	path := filepath.Join(t.TempDir(), "cp.json")
	cp := &Checkpoint{Version: CheckpointVersion, Name: "crawl-1", TotalSites: 1}
	if err := cp.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters["store.dir_syncs"]
	if after <= before {
		t.Errorf("WriteAtomic did not sync the parent directory (store.dir_syncs %d -> %d)", before, after)
	}
}

// TestCheckpointExtentsCoverBufferedGroups pins the Commit audit: a
// checkpoint's extent — the sealed segments it vouches for — must cover
// the group of records still buffered in the store's unsealed segment
// when it commits; it never vouches for jobs whose pages are only
// buffered. Commit's safe ordering is jobs-snapshot →
// Seal → segment count: any job done at snapshot time appended its
// pages before the snapshot, so the seal that follows covers them, and
// the recorded count names exactly the segments on disk. This test
// leaves appends in the buffer (too few to trip an auto-seal), commits,
// and requires the vouched segments to exist and hold every page.
func TestCheckpointExtentsCoverBufferedGroups(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "cp.json")
	storeDir := filepath.Join(dir, "store")
	l, err := OpenLedger(LedgerConfig{
		Crawl:          Checkpoint{Name: "t", Seed: 1, PagesPerSite: 5, TotalSites: 1},
		CheckpointPath: cpPath,
		StoreDir:       storeDir,
	})
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

	if err := l.Commit(func() []JobRecord {
		return []JobRecord{{Domain: "pub.com", Rank: 1, State: JobDone, Attempts: 1}}
	}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Segments != 1 || len(segs) != 1 {
		t.Fatalf("checkpoint vouches for %d segments, %d on disk; want the 1 the commit sealed", cp.Segments, len(segs))
	}
	recs, err := colstore.ReadSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("the vouched segment holds %d pages, want the 5 appended before the commit", len(recs))
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
