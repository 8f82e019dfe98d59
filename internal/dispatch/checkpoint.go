package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/colstore"
)

// CheckpointVersion is the on-disk format version. Version 2 added the
// optional shardBytes spool guard; version 3 added the optional
// batchSize and failedSites fields that let the fabric coordinator share
// the format (its jobs are batch IDs). Version-1 and -2 single-process
// files still load, so upgrading mid-study does not strand a checkpoint.
const CheckpointVersion = 3

// CheckpointError reports a checkpoint that cannot drive a resume:
// corrupt bytes, an unsupported format version, or an incompatibility
// with the configured crawl. It is a hard error by design — resuming
// past it would silently produce a partial crawl — and it always
// carries an actionable hint.
type CheckpointError struct {
	// Path is the checkpoint file.
	Path string
	// Version is the file's format version (0 when undecodable).
	Version int
	// Reason says what is wrong.
	Reason string
	// Hint says what the operator should do about it.
	Hint string
}

// Error renders the versioned, actionable message.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("dispatch: checkpoint %s (format v%d): %s — %s", e.Path, e.Version, e.Reason, e.Hint)
}

// hintStartFresh is the standard remediation for an unusable checkpoint.
const hintStartFresh = "delete the checkpoint and spool directory, or rerun without -resume, to start the crawl from scratch"

// hintWrongCrawl is the remediation for a checkpoint from another crawl.
const hintWrongCrawl = "point -checkpoint/-spool-dir at the original crawl's state, or match the original crawl's flags"

// Checkpoint is the durable progress state of a crawl. It is written
// atomically (temp file + rename in the same directory), so a crash can
// never leave a torn checkpoint behind; at worst the file is one
// generation stale, which resume tolerates because re-crawled pages
// deduplicate in the spool merge.
//
// Format: a single JSON object —
//
//	{
//	  "version": 3,
//	  "name": "Apr 02-05, 2017",   // crawl identity
//	  "seed": 20170419,            // study seed (guards mixed resumes)
//	  "numShards": 8,              // spool shard count (must match)
//	  "pagesPerSite": 15,
//	  "totalSites": 600,
//	  "batchSize": 16,             // coordinator only: jobs are batch IDs
//	  "done": ["a.com", ...],      // completed jobs, sorted
//	  "failed": {"b.com": "..."},  // exhausted jobs with last error
//	  "attempts": {"c.com": 2},    // attempt counts of unfinished jobs
//	  "failedSites": {"d.com": "..."}, // coordinator only: per-site failures
//	  "shardBytes": [4096, ...]    // spool guard
//	}
type Checkpoint struct {
	Version      int    `json:"version"`
	Name         string `json:"name"`
	Seed         int64  `json:"seed"`
	NumShards    int    `json:"numShards"`
	PagesPerSite int    `json:"pagesPerSite"`
	TotalSites   int    `json:"totalSites"`
	// BatchSize is 0 for a single-process crawl, whose jobs are sites.
	// The fabric coordinator records its sites-per-batch here (v3+); its
	// jobs are then batch IDs, whose membership is re-derived from
	// (Seed, BatchSize) on resume and never persisted.
	BatchSize int               `json:"batchSize,omitempty"`
	Done      []string          `json:"done"`
	Failed    map[string]string `json:"failed,omitempty"`
	Attempts  map[string]int    `json:"attempts,omitempty"`
	// FailedSites maps permanently failed sites inside completed batches
	// to their last error (batch mode only, v3+).
	FailedSites map[string]string `json:"failedSites,omitempty"`
	// ShardBytes records each spool shard's durable size at checkpoint
	// time (v2+). On resume every shard must be at least this large
	// after tail repair; a smaller shard means the spool does not match
	// the checkpoint (deleted, swapped, or damaged) and resuming would
	// silently drop the completed sites' pages from the merged dataset.
	ShardBytes []int64 `json:"shardBytes,omitempty"`
}

// WriteAtomic persists the checkpoint with temp-file+rename semantics.
func (c *Checkpoint) WriteAtomic(path string) error {
	return WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(c)
	})
}

// LoadCheckpoint reads a checkpoint file. Undecodable bytes and
// unsupported format versions surface as *CheckpointError: both mean a
// resume cannot be trusted and must fail fast rather than run a crawl
// that silently drops the checkpointed progress.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c Checkpoint
	if err := json.NewDecoder(f).Decode(&c); err != nil {
		return nil, &CheckpointError{Path: path, Reason: fmt.Sprintf("corrupt checkpoint: %v", err), Hint: hintStartFresh}
	}
	if c.Version < 1 || c.Version > CheckpointVersion {
		return nil, &CheckpointError{
			Path: path, Version: c.Version,
			Reason: fmt.Sprintf("unsupported format version (this build reads v1..v%d)", CheckpointVersion),
			Hint:   hintStartFresh,
		}
	}
	if c.Version < 3 && c.BatchSize > 0 {
		// Before v3 the coordinator wrote its own format under the same
		// version numbers; its batch records are not in this struct, so
		// resuming would silently treat every batch as fresh.
		return nil, &CheckpointError{
			Path: path, Version: c.Version,
			Reason: "coordinator checkpoint in the retired pre-v3 format",
			Hint:   hintStartFresh,
		}
	}
	return &c, nil
}

// Compatible verifies that a checkpoint belongs to the crawl being
// resumed: same identity, seed, shard layout, page budget, site count
// and batch size as want's header (want's progress fields are ignored).
// A mismatch is a *CheckpointError; resuming across one would mix two
// different crawls' state into one partial dataset.
func (c *Checkpoint) Compatible(path string, want *Checkpoint) error {
	mismatch := func(reason string) error {
		return &CheckpointError{Path: path, Version: c.Version, Reason: reason, Hint: hintWrongCrawl}
	}
	switch {
	case c.Name != want.Name:
		return mismatch(fmt.Sprintf("checkpoint is for crawl %q, not %q", c.Name, want.Name))
	case c.Seed != want.Seed:
		return mismatch(fmt.Sprintf("checkpoint seed %d != configured seed %d", c.Seed, want.Seed))
	case c.NumShards != want.NumShards:
		return mismatch(fmt.Sprintf("checkpoint has %d spool shards, configured %d", c.NumShards, want.NumShards))
	case c.PagesPerSite != want.PagesPerSite:
		return mismatch(fmt.Sprintf("checkpoint page budget %d != configured %d", c.PagesPerSite, want.PagesPerSite))
	case c.TotalSites != want.TotalSites:
		return mismatch(fmt.Sprintf("checkpoint covers %d sites, configured %d", c.TotalSites, want.TotalSites))
	case c.BatchSize != want.BatchSize:
		return mismatch(fmt.Sprintf("checkpoint batch size %d != configured %d (0 = single-process crawl)", c.BatchSize, want.BatchSize))
	}
	return nil
}

// WriteAtomic writes a file via a temp file in the same directory plus
// os.Rename, so readers never observe a partial write and a crash
// cannot truncate an existing file. The write callback receives a
// buffered writer that is flushed and synced before the rename. After
// the rename the parent directory is fsynced (colstore.SyncDir has the
// full contract): without it the rename only exists in the directory's
// dirty cache, and power loss could resurrect the old checkpoint — or
// delete a first-generation one outright — after the caller already
// treated the new state as durable.
func WriteAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("dispatch: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("dispatch: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("dispatch: atomic write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("dispatch: atomic write %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("dispatch: atomic write %s: rename: %w", path, err)
	}
	if err = colstore.SyncDir(dir); err != nil {
		return fmt.Errorf("dispatch: atomic write %s: %w", path, err)
	}
	return nil
}
