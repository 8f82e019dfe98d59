package dispatch

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

// mergeSegments is the fold no run makes: every record of every sealed
// segment the run left in storeDir, decoded one segment file at a time
// and folded in seq order into a fresh analysis.Folder — the store's
// replay, rebuilt from its parts.
func mergeSegments(t *testing.T, meta analysis.DatasetMeta, storeDir string) (*analysis.Dataset, analysis.MergeStats) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	folder := analysis.NewFolder(meta)
	for _, seg := range segs {
		recs, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			folder.Fold(rec)
		}
	}
	return folder.Snapshot()
}

// TestStoreMatchesMergeOracle is the store's differential: a crawl's
// dataset — the store's live fold — is byte-identical to a cold
// read-only open of the store it left behind and to a merge of that
// store's segment files folded one by one.
func TestStoreMatchesMergeOracle(t *testing.T) {
	env := newTestEnv(t, 16)

	dir := t.TempDir()
	cfg := env.config(dir, 2, nil)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := datasetBytes(t, res.Dataset)

	// The sealed segments alone (Run closed the ledger, sealing the tail)
	// — a fresh read-only open, no live state — reproduce the same bytes.
	if !bytes.Equal(coldStore(t, dir), got) {
		t.Error("re-opened store dataset differs from the run's")
	}
	merged, stats := mergeSegments(t, cfg.Meta, cfg.StoreDir)
	if !bytes.Equal(datasetBytes(t, merged), got) {
		t.Error("the merge of the store's segments differs from the run's dataset")
	}
	if res.Merge.Pages == 0 || res.Merge.Pages != stats.Pages || stats.Duplicates != 0 {
		t.Errorf("store folded %+v, the segment merge %+v", res.Merge, stats)
	}
}

// TestStoreKillAndResumeConverges: a crawl cancelled mid-run resumes
// from its checkpoint plus sealed segments and converges byte-for-byte
// with an uninterrupted run. (A cancelled Run still closes its ledger;
// TestLedger's dropped rows cover the process death that loses unsealed
// records.)
func TestStoreKillAndResumeConverges(t *testing.T) {
	env := newTestEnv(t, 20)

	fullDir := t.TempDir()
	full, err := Run(context.Background(), env.config(fullDir, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full.Dataset)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	r := env.runner()
	r.onPage = func() {
		if pages.Add(1) == 10 {
			cancel()
		}
	}
	cfg := env.config(dir, 2, r)
	cfg.commitEvery = 1
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	cp, err := LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("no checkpoint after kill: %v", err)
	}
	if len(cp.Done) == 0 || len(cp.Done) == len(env.sites) {
		t.Fatalf("checkpoint done = %d sites, want a strict subset", len(cp.Done))
	}

	cfg2 := env.config(dir, 2, nil)
	cfg2.commitEvery = 1
	cfg2.Resume = true
	res2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedDone != len(cp.Done) {
		t.Errorf("resumed %d sites, checkpoint had %d", res2.ResumedDone, len(cp.Done))
	}
	if !bytes.Equal(datasetBytes(t, res2.Dataset), want) {
		t.Error("resumed dataset differs from uninterrupted run")
	}
	// The query service's view of the finished crawl — a read-only open
	// of the sealed segments — and the merge of those segments agree.
	if !bytes.Equal(coldStore(t, dir), want) {
		t.Error("sealed store after kill+resume differs from want")
	}
	if merged, _ := mergeSegments(t, cfg2.Meta, cfg2.StoreDir); !bytes.Equal(datasetBytes(t, merged), want) {
		t.Error("the merge of the resumed run's segments differs from the uninterrupted run")
	}
}
