package dispatch

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/analysis/oracle"
	"repro/internal/colstore"
)

// spoolPaths reconstructs a run's shard file paths.
func spoolPaths(dir string) []string {
	paths := make([]string, DefaultShards)
	for i := range paths {
		paths[i] = filepath.Join(dir, "spool", shardName(i))
	}
	return paths
}

// TestStoreMatchesMergeOracle is the tentpole differential: a crawl
// streamed into the columnar store produces a dataset byte-identical to
// the spool-merge path — from the live Run result, from the sealed
// on-disk segments alone, and from merging the spool the store run left
// behind.
func TestStoreMatchesMergeOracle(t *testing.T) {
	env := newTestEnv(t, 16)

	mergeDir := t.TempDir()
	mergeRes, err := Run(context.Background(), env.config(mergeDir, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, mergeRes.Dataset)

	storeDir := t.TempDir()
	cfg := env.config(storeDir, 2, nil)
	cfg.StoreDir = filepath.Join(storeDir, "store")
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasetBytes(t, res.Dataset); !bytes.Equal(got, want) {
		t.Error("store-derived dataset differs from merge-derived run")
	}
	if res.Merge.Pages == 0 || res.Merge.Pages != mergeRes.Merge.Pages {
		t.Errorf("store folded %d pages, merge run saw %d", res.Merge.Pages, mergeRes.Merge.Pages)
	}

	// The sealed segments alone (Run closed the ledger, sealing the tail)
	// — a fresh read-only open, no live state — reproduce the same bytes.
	ro, err := colstore.OpenRead(filepath.Join(storeDir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(datasetBytes(t, roDS), want) {
		t.Error("re-opened store dataset differs from merge want")
	}

	// The spool the store run retained is still the merge oracle's input:
	// merging it yields the identical dataset yet again.
	spoolDS, _, err := oracle.MergeShards(cfg.Meta, spoolPaths(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetBytes(t, spoolDS), want) {
		t.Error("merging the store run's spool differs from the want")
	}
}

// TestStoreKillAndResumeConverges: a store-backed crawl cancelled
// mid-run resumes from its checkpoint plus sealed segments and converges
// byte-for-byte with an uninterrupted fold-path run. (A cancelled Run
// still closes its ledger; TestLedger's dropped rows cover the process
// death that loses unsealed records.)
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
	cfg.StoreDir = filepath.Join(dir, "store")
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
	cfg2.StoreDir = cfg.StoreDir
	cfg2.Resume = true
	res2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedDone != len(cp.Done) {
		t.Errorf("resumed %d sites, checkpoint had %d", res2.ResumedDone, len(cp.Done))
	}
	if !bytes.Equal(datasetBytes(t, res2.Dataset), want) {
		t.Error("resumed store-derived dataset differs from uninterrupted run")
	}
	if own, _ := mergeOracle(t, cfg2, dir); !bytes.Equal(datasetBytes(t, own), want) {
		t.Error("the merge of the resumed run's own spool differs from the uninterrupted run")
	}

	// The query service's view of the finished crawl — a read-only open
	// of the sealed segments — agrees with the oracle too.
	ro, err := colstore.OpenRead(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(datasetBytes(t, roDS), want) {
		t.Error("sealed store after kill+resume differs from want")
	}
}
