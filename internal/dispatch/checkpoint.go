package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/colstore"
	"repro/internal/obs"
)

// CheckpointVersion is the on-disk format version, and the only one
// LoadCheckpoint reads; older files are refused with the start-fresh
// hint. From version 4 a local crawl and a fabric coordinator write one
// header and record sites as jobs, so their files differ in progress
// only.
const CheckpointVersion = 4

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
// deduplicate in the fold.
//
// Format: a single JSON object —
//
//	{
//	  "version": 4,
//	  "name": "Apr 02-05, 2017",   // crawl identity
//	  "seed": 20170419,            // per-crawl seed (guards mixed resumes)
//	  "numShards": 8,              // spool shard count (must match)
//	  "pagesPerSite": 15,
//	  "totalSites": 600,
//	  "done": ["a.com", ...],      // completed sites, sorted
//	  "failed": {"b.com": "..."},  // exhausted sites with last error
//	  "attempts": {"c.com": 2},    // attempt counts of unfinished sites
//	  "shardBytes": [4096, ...]    // spool guard
//	}
//
// A local crawl and a fabric coordinator write the same file, so either
// role resumes the other's checkpoint.
type Checkpoint struct {
	Version      int               `json:"version"`
	Name         string            `json:"name"`
	Seed         int64             `json:"seed"`
	NumShards    int               `json:"numShards"`
	PagesPerSite int               `json:"pagesPerSite"`
	TotalSites   int               `json:"totalSites"`
	Done         []string          `json:"done"`
	Failed       map[string]string `json:"failed,omitempty"`
	Attempts     map[string]int    `json:"attempts,omitempty"`
	// ShardBytes records each spool shard's durable size at checkpoint
	// time: its extent. A resume replays every shard against it, and a
	// shard that is shorter, or whose complete lines end before it, does
	// not match the checkpoint (deleted, swapped, or damaged); resuming
	// would silently drop the completed sites' pages from the dataset.
	ShardBytes []int64 `json:"shardBytes,omitempty"`
}

// WriteAtomic persists the checkpoint with temp-file+rename semantics
// (colstore.WriteAtomic), counting its bytes in checkpoint.bytes.
func (c *Checkpoint) WriteAtomic(path string) error {
	return colstore.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(countingWriter{w, obs.CheckpointBytes})
		enc.SetIndent("", " ")
		return enc.Encode(c)
	})
}

// LoadCheckpoint reads a checkpoint file. Undecodable bytes and any
// format version but CheckpointVersion surface as *CheckpointError: both
// mean a resume cannot be trusted and must fail fast rather than run a
// crawl that silently drops the checkpointed progress.
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
	if c.Version != CheckpointVersion {
		return nil, &CheckpointError{
			Path: path, Version: c.Version,
			Reason: fmt.Sprintf("unsupported format version (this build reads v%d only)", CheckpointVersion),
			Hint:   hintStartFresh,
		}
	}
	return &c, nil
}

// Compatible verifies that a checkpoint belongs to the crawl being
// resumed: same identity, seed, shard layout, page budget and site count
// as want's header (want's progress fields are ignored).
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
	}
	return nil
}
