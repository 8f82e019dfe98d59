package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
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
		recs, _, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			folder.Fold(rec)
		}
	}
	return folder.Snapshot()
}

// sealedRows reads the outcome rows of every sealed segment of the store
// at storeDir, in seal order: what a resume of it restores.
func sealedRows(t *testing.T, storeDir string) []colstore.Outcome {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []colstore.Outcome
	for _, seg := range segs {
		_, segRows, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, segRows...)
	}
	return rows
}

// doneSites is the set of sites rows mark done.
func doneSites(rows []colstore.Outcome) map[string]bool {
	done := map[string]bool{}
	for _, row := range rows {
		if row.State == colstore.OutcomeDone {
			done[row.Domain] = true
		}
	}
	return done
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
// from its sealed segments and converges byte-for-byte with an
// uninterrupted run. (A cancelled Run still closes its ledger;
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
	done := doneSites(sealedRows(t, cfg.StoreDir))
	if len(done) == 0 || len(done) == len(env.sites) {
		t.Fatalf("the store marks %d sites done, want a strict subset", len(done))
	}

	cfg2 := env.config(dir, 2, nil)
	cfg2.commitEvery = 1
	cfg2.Resume = true
	res2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedDone != len(done) {
		t.Errorf("resumed %d sites, the store marked %d done", res2.ResumedDone, len(done))
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

// TestResumeFromEveryCommitBoundary: every durable write of a crawl is
// the store's manifest or one segment publish, so the states a crash can
// leave are the manifest plus segments 0 to k-1, with or without the
// torn temp of segment k beside them. The test crawls with a commit per
// settled site, then resumes a copy of every such prefix — k from 0 to
// the number of seals, each clean and with a torn temp — and every resume
// must skip exactly the sites the prefix's rows mark done and converge on
// the uninterrupted crawl's dataset byte for byte.
func TestResumeFromEveryCommitBoundary(t *testing.T) {
	env := newTestEnv(t, 12)
	fullDir := t.TempDir()
	cfg := env.config(fullDir, 1, nil)
	cfg.commitEvery = 1
	full, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full.Dataset)
	segs, err := filepath.Glob(filepath.Join(cfg.StoreDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < len(env.sites) {
		t.Fatalf("%d seals for %d sites: the crawl did not commit per site", len(segs), len(env.sites))
	}
	manifest, err := os.ReadFile(filepath.Join(cfg.StoreDir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}

	points := 0
	for k := 0; k <= len(segs); k++ {
		for _, torn := range []bool{false, true} {
			dir := t.TempDir()
			store := filepath.Join(dir, "store")
			if err := os.MkdirAll(store, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{"store.json": manifest}
			for _, seg := range segs[:k] {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				files[filepath.Base(seg)] = data
			}
			if torn {
				data := []byte("WSCOLSG1 torn")
				if k < len(segs) {
					if data, err = os.ReadFile(segs[k]); err != nil {
						t.Fatal(err)
					}
					data = data[:len(data)/2]
				}
				files[fmt.Sprintf("seg-%06d.col.tmp-1", k)] = data
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(store, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			done := doneSites(sealedRows(t, store))

			rcfg := env.config(dir, 2, nil)
			rcfg.commitEvery = 1
			rcfg.Resume = true
			res, err := Run(context.Background(), rcfg)
			if err != nil {
				t.Fatalf("prefix %d (torn temp %v): %v", k, torn, err)
			}
			if res.ResumedDone != len(done) {
				t.Errorf("prefix %d (torn temp %v): resumed %d sites, its rows mark %d done", k, torn, res.ResumedDone, len(done))
			}
			if !bytes.Equal(datasetBytes(t, res.Dataset), want) || !bytes.Equal(coldStore(t, dir), want) {
				t.Errorf("prefix %d (torn temp %v): the resumed dataset differs from the uninterrupted crawl's", k, torn)
			}
			points++
		}
	}
	t.Logf("%d crash points covered: %d seals, each prefix clean and with a torn temp", points, len(segs))
}
