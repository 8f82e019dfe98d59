package dispatch

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/oracle"
)

// mergeOracle is the decode pass no run makes: the dataset merged from
// the spool shards a finished run left in dir.
func mergeOracle(t *testing.T, cfg Config, dir string) (*analysis.Dataset, oracle.MergeStats) {
	t.Helper()
	ds, stats, err := oracle.MergeShards(cfg.Meta, spoolPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	return ds, stats
}

// TestBatchedPipelineMatchesSeedDataset is the dispatch half of the
// differential invariant: group commit plus live folding produces the
// same dataset bytes as the merge of the spool the folded run left
// behind, and as a one-worker run that flushes and checkpoints after
// every settled site — the nearest the ledger comes to the seed's
// flush per record.
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
	merged, mstats := mergeOracle(t, cfg, dir)
	want := datasetBytes(t, merged)
	if !bytes.Equal(want, datasetBytes(t, opt.Dataset)) {
		t.Error("batched+folded dataset differs from the merge of its own spool")
	}
	if !bytes.Equal(want, datasetBytes(t, seed.Dataset)) {
		t.Error("per-site-commit run's dataset differs from the batched run's merged spool")
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

// TestBatchedSpoolAppendAllocs pins the group-committed append path:
// appends between group boundaries reach no file — the shard stays empty
// until its groupPages-th line commits the group — and, with a write
// buffer sized for the group, an append is one record encode plus
// buffered copies: no per-record file writes, no buffer regrowth.
func TestBatchedSpoolAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := rec("alpha.com", "http://alpha.com/")
	shard := sp.Paths()[sp.ShardFor(r.Site)]
	size := func() int64 {
		fi, err := os.Stat(shard)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for i := 1; i <= 2*groupPages; i++ {
		if err := appendRec(sp, r); err != nil {
			t.Fatal(err)
		}
		if got, committed := size(), i/groupPages > 0; (got > 0) != committed {
			t.Fatalf("after %d appends the shard holds %d bytes; group boundary every %d", i, got, groupPages)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := appendRec(sp, r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per append", allocs)
	// The encode itself dominates; a small fixed bound catches any
	// return to per-append buffer churn.
	if allocs > 12 {
		t.Errorf("batched append: %.1f allocs, want <= 12", allocs)
	}
}
