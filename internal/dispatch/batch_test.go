package dispatch

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestBatchedPipelineMatchesSeedDataset is the dispatch half of the
// differential invariant: group commit plus live folding produces the
// same dataset bytes as a cold read of the store the run left behind,
// and as a one-worker run that seals and checkpoints after every
// settled site — the nearest the ledger comes to the seed's flush per
// record.
func TestBatchedPipelineMatchesSeedDataset(t *testing.T) {
	env := newTestEnv(t, 16)

	seedCfg := env.config(t.TempDir(), 1, nil)
	seedCfg.commitEvery = 1
	seed, err := Run(context.Background(), seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := env.config(dir, 2, nil)
	opt, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := coldStore(t, dir)
	if !bytes.Equal(want, datasetBytes(t, opt.Dataset)) {
		t.Error("batched+folded dataset differs from a cold read of its own store")
	}
	if !bytes.Equal(want, datasetBytes(t, seed.Dataset)) {
		t.Error("per-site-commit run's dataset differs from the batched run's store")
	}
	// The folded run must still report real merge stats.
	if opt.Merge.Pages == 0 || opt.Merge.Pages != seed.Merge.Pages {
		t.Errorf("merge stats: batched %+v, per-site-commit %+v", opt.Merge, seed.Merge)
	}
}

// TestBatchedKillAndResumeConverges kills a group-committed crawl
// mid-run and resumes it, checking the result against a cold read of an
// uninterrupted run's store. This is the durability edge the group
// commit moved: a kill can land while records sit in the store's
// unsealed buffer, and the checkpoint contract (no site marked done
// before its pages are sealed) has to make the resume converge anyway.
func TestBatchedKillAndResumeConverges(t *testing.T) {
	env := newTestEnv(t, 16)

	fullDir := t.TempDir()
	fullCfg := env.config(fullDir, 2, nil)
	if _, err := Run(context.Background(), fullCfg); err != nil {
		t.Fatal(err)
	}
	full := coldStore(t, fullDir)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	r := env.runner()
	r.onPage = func() {
		if pages.Add(1) == 9 {
			cancel()
		}
	}
	cfg := env.config(dir, 2, r)
	cfg.commitEvery = 1
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	cfg2 := env.config(dir, 2, nil)
	cfg2.commitEvery = 1
	cfg2.Store.Resume = true
	res, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedDone == 0 {
		t.Error("resume found no completed sites in the checkpoint")
	}
	if !bytes.Equal(full, datasetBytes(t, res.Dataset)) {
		t.Error("killed+resumed batched run differs from uninterrupted seed run")
	}
	if !bytes.Equal(coldStore(t, dir), datasetBytes(t, res.Dataset)) {
		t.Error("killed+resumed batched run differs from a cold read of its own store")
	}
}
