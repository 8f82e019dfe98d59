package dispatch

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/oracle"
)

// pooled returns a runner on the shipping plane's pooled recorder
// scratch (the ledger's spool writes are group-committed either way).
func pooled(env *testEnv) *testRunner {
	r := env.runner()
	r.rec.Pooled = true
	return r
}

// mergeOracle is the decode pass no run makes: the dataset merged from
// the spool shards a finished run left in dir.
func mergeOracle(t *testing.T, cfg Config, dir string) (*analysis.Dataset, oracle.MergeStats) {
	t.Helper()
	ds, stats, err := oracle.MergeShards(cfg.Meta, spoolPaths(dir, cfg.NumShards))
	if err != nil {
		t.Fatal(err)
	}
	return ds, stats
}

// TestBatchedPipelineMatchesSeedDataset is the dispatch half of the
// differential invariant: group commit plus live folding — with the
// recorder pooled or not — produces the same dataset bytes as the merge
// of the spool the folded run left behind.
func TestBatchedPipelineMatchesSeedDataset(t *testing.T) {
	env := newTestEnv(t, 16)

	seed, err := Run(context.Background(), env.config(t.TempDir(), 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := env.config(dir, 2, pooled(env))
	opt, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, mstats := mergeOracle(t, cfg, dir)
	want := datasetBytes(t, merged)
	if !bytes.Equal(want, datasetBytes(t, opt.Dataset)) {
		t.Error("batched+folded dataset differs from the merge of its own spool")
	}
	if !bytes.Equal(want, datasetBytes(t, seed.Dataset)) {
		t.Error("un-pooled run's dataset differs from the pooled run's merged spool")
	}
	// The folded run must still report real merge stats.
	if opt.Merge.Pages == 0 || opt.Merge.Pages != mstats.Pages || opt.Merge.Shards != mstats.Shards {
		t.Errorf("merge stats: folded %+v, merged %+v", opt.Merge, mstats)
	}
}

// TestBatchedKillAndResumeConverges kills a group-committed crawl
// mid-run and resumes it, checking the result against the merged spool
// of an uninterrupted run. This is the
// durability edge the group commit moved: a kill can land while records
// sit in a shard's write buffer, and the checkpoint contract (no site
// marked done before its pages are flushed) has to make the resume
// converge anyway.
func TestBatchedKillAndResumeConverges(t *testing.T) {
	env := newTestEnv(t, 16)

	fullDir := t.TempDir()
	fullCfg := env.config(fullDir, 2, nil)
	if _, err := Run(context.Background(), fullCfg); err != nil {
		t.Fatal(err)
	}
	full, _ := mergeOracle(t, fullCfg, fullDir)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pages atomic.Int64
	r := pooled(env)
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

	cfg2 := env.config(dir, 2, pooled(env))
	cfg2.commitEvery = 1
	cfg2.Resume = true
	res, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedDone == 0 {
		t.Error("resume found no completed sites in the checkpoint")
	}
	if !bytes.Equal(datasetBytes(t, full), datasetBytes(t, res.Dataset)) {
		t.Error("killed+resumed batched run differs from uninterrupted seed run")
	}
	if own, _ := mergeOracle(t, cfg2, dir); !bytes.Equal(datasetBytes(t, own), datasetBytes(t, res.Dataset)) {
		t.Error("killed+resumed batched run differs from the merge of its own spool")
	}
}

// TestBatchedSpoolAppendAllocs pins the group-committed append path's
// allocation profile: with a write buffer sized for the batch, appends
// between commit boundaries are one JSON encode plus buffered copies —
// no per-record file writes, no buffer regrowth. The flush-per-record
// zero policy is measured alongside as the ceiling.
func TestBatchedSpoolAppendAllocs(t *testing.T) {
	appendAllocs := func(batch BatchPolicy) float64 {
		dir := t.TempDir()
		sp, err := OpenSpoolBatch(dir, 2, false, batch)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		r := rec("alpha.com", "http://alpha.com/")
		// Warm the encoder and the shard's write buffer.
		for i := 0; i < 128; i++ {
			if err := sp.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := sp.Append(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	batched := appendAllocs(BatchPolicy{Pages: 64, Bytes: 256 * 1024})
	seeded := appendAllocs(BatchPolicy{})
	if batched > seeded {
		t.Errorf("batched append allocates more than the per-record path: %.1f vs %.1f", batched, seeded)
	}
	// The encode itself dominates; a small fixed bound catches any
	// return to per-append buffer churn.
	if batched > 12 {
		t.Errorf("batched append: %.1f allocs, want <= 12", batched)
	}
}
