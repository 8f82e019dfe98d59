package dispatch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Name:         "crawl-1",
		Seed:         42,
		NumShards:    4,
		PagesPerSite: 15,
		TotalSites:   100,
		Done:         []string{"a.com", "b.com"},
		Failed:       map[string]string{"c.com": "boom"},
		Attempts:     map[string]int{"c.com": 3, "d.com": 1},
	}
	if err := cp.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cp.Name || got.Seed != cp.Seed || len(got.Done) != 2 || got.Failed["c.com"] != "boom" || got.Attempts["d.com"] != 1 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
}

// TestCheckpointCompatible exercises every mismatch arm, for a
// single-process checkpoint (jobs are sites) and a coordinator's (jobs
// are batches), including each refusing to resume as the other.
func TestCheckpointCompatible(t *testing.T) {
	site := Checkpoint{Name: "x", Seed: 1, NumShards: 8, PagesPerSite: 15, TotalSites: 10}
	batch := site
	batch.BatchSize = 16
	for _, tc := range []struct {
		name   string
		have   Checkpoint
		mutate func(want *Checkpoint)
		expect string // "" = compatible
	}{
		{"same", site, func(*Checkpoint) {}, ""},
		{"name", site, func(w *Checkpoint) { w.Name = "y" }, "crawl"},
		{"seed", site, func(w *Checkpoint) { w.Seed = 2 }, "seed"},
		{"shards", site, func(w *Checkpoint) { w.NumShards = 4 }, "shards"},
		{"pages", site, func(w *Checkpoint) { w.PagesPerSite = 5 }, "budget"},
		{"totalSites", site, func(w *Checkpoint) { w.TotalSites = 99 }, "sites"},
		{"site file under a coordinator", site, func(w *Checkpoint) { w.BatchSize = 16 }, "batch size"},
		{"batch same", batch, func(*Checkpoint) {}, ""},
		{"batchSize", batch, func(w *Checkpoint) { w.BatchSize = 8 }, "batch size"},
		{"batch totalSites", batch, func(w *Checkpoint) { w.TotalSites = 99 }, "sites"},
		{"coordinator file under wscrawl", batch, func(w *Checkpoint) { w.BatchSize = 0 }, "batch size"},
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

// TestLoadCheckpointAcrossVersions: v1 and v2 single-process files keep
// loading under the v3 build, while a coordinator file in the retired
// pre-v3 format (same version numbers, batch records this struct cannot
// see) is refused loudly with the start-fresh hint instead of resuming
// as an empty crawl.
func TestLoadCheckpointAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	load := func(body string) (*Checkpoint, error) {
		path := filepath.Join(dir, "cp.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadCheckpoint(path)
	}
	for _, body := range []string{
		`{"version":1,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":3,"done":["a.com"]}`,
		`{"version":2,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"totalSites":3,"done":["a.com"],"shardBytes":[10,0]}`,
	} {
		cp, err := load(body)
		if err != nil {
			t.Errorf("single-process file refused: %v\n%s", err, body)
			continue
		}
		if jobs := cp.Jobs(); len(jobs) != 1 || jobs[0].Domain != "a.com" || jobs[0].State != JobDone {
			t.Errorf("v%d jobs = %+v", cp.Version, jobs)
		}
	}
	// What PR 6..12 coordinators wrote (wire.Checkpoint v1).
	_, err := load(`{"version":1,"name":"c","seed":1,"numShards":2,"pagesPerSite":5,"batchSize":4,` +
		`"totalBatches":3,"totalSites":10,"batches":[{"domain":"b0001","state":"done"}],"shardBytes":[64,128]}`)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("old coordinator file: err = %v (%T), want *CheckpointError", err, err)
	}
	if ce.Version != 1 || !strings.Contains(ce.Error(), "pre-v3") || !strings.Contains(ce.Error(), "start the crawl from scratch") {
		t.Errorf("old coordinator file: error %q lacks the version, the reason or the start-fresh hint", ce)
	}
}

// TestWriteAtomicSyncsParentDir: rename-based atomic writes are only
// crash-durable once the parent directory's entry is synced — without
// it, power loss after the rename can leave the directory pointing at
// the old file or at nothing. The dir-sync helper counts each
// successful directory sync in store.dir_syncs; every WriteAtomic must
// perform one.
func TestWriteAtomicSyncsParentDir(t *testing.T) {
	before := obs.Default.Snapshot().Counters["store.dir_syncs"]
	path := filepath.Join(t.TempDir(), "data.json")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters["store.dir_syncs"]
	if after <= before {
		t.Errorf("WriteAtomic did not sync the parent directory (store.dir_syncs %d -> %d)", before, after)
	}
}

// TestCheckpointExtentsCoverBufferedGroups pins the Commit group-commit
// audit: a checkpoint must never record spool extents that precede a
// buffered-but-unflushed group, nor vouch for jobs whose pages are still
// in a write buffer. Commit's safe ordering is jobs-snapshot → Flush →
// ShardSizes: any job done at snapshot time appended its pages before
// the snapshot, so the flush that follows covers them, and the recorded
// extents equal the durable on-disk sizes. This test leaves appends in
// the ledger's group-commit buffer (too few to trip it), commits, and
// requires the recorded extents to match disk and cover every appended
// byte.
func TestCheckpointExtentsCoverBufferedGroups(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "cp.json")
	l, err := OpenLedger(LedgerConfig{
		Crawl:          Checkpoint{Name: "t", Seed: 1, NumShards: 2, PagesPerSite: 5, TotalSites: 1},
		SpoolDir:       dir,
		CheckpointPath: cpPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(rec("pub.com", fmt.Sprintf("http://pub.com/p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Precondition: the appends really are sitting in the group buffer.
	pre, err := l.spool.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pre {
		if b != 0 {
			t.Fatalf("shard %d has %d bytes on disk before any flush; the ledger did not buffer", i, b)
		}
	}

	if err := l.Commit(func() ([]JobRecord, map[string]string) {
		return []JobRecord{{Domain: "pub.com", Rank: 1, State: JobDone, Attempts: 1}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := l.spool.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.ShardBytes) != len(disk) {
		t.Fatalf("checkpoint recorded %d shard extents, spool has %d shards", len(cp.ShardBytes), len(disk))
	}
	var total int64
	for i, b := range cp.ShardBytes {
		if b != disk[i] {
			t.Errorf("shard %d: checkpoint extent %d != on-disk size %d", i, b, disk[i])
		}
		total += b
	}
	if total == 0 {
		t.Error("checkpoint recorded empty extents while appends sat in the group buffer — the buffered group was never flushed before the extents were read")
	}
}

func TestWriteAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "original")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the original intact and clean up its
	// temp file.
	err := WriteAtomic(path, func(w io.Writer) error {
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
