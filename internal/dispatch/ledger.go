package dispatch

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/obs"
)

// groupCommit is the ledger's one spool group-commit policy: a shard
// buffers up to 64 pages or 256 KiB between flushes. Durability does not
// depend on it — Commit flushes before it vouches for anything — it only
// bounds how much re-crawling a crash costs.
var groupCommit = BatchPolicy{Pages: 64, Bytes: 256 * 1024}

// LedgerConfig locates and identifies one crawl's durable state.
type LedgerConfig struct {
	// Crawl is the checkpoint header: the identity (Name, Seed, NumShards,
	// PagesPerSite, TotalSites, BatchSize) every checkpoint this ledger
	// writes carries and a resumed one must match. NumShards defaults to
	// DefaultShards; progress fields are ignored.
	Crawl Checkpoint
	// Meta names the derived dataset (and the store's identity).
	Meta analysis.DatasetMeta
	// SpoolDir receives the sharded JSONL spool files. Required.
	SpoolDir string
	// CheckpointPath is the crawl's durable state file. Required.
	CheckpointPath string
	// StoreDir, when non-empty, also ingests every page into a columnar
	// store at this directory (queryable with cmd/wsquery while the crawl
	// runs) and derives the dataset from it.
	StoreDir string
	// Resume loads CheckpointPath (when present) and continues from it
	// instead of starting from scratch.
	Resume bool
}

// Ledger owns a crawl's durable state — the spool, the optional columnar
// store, the live fold and the checkpoint file — and is the only place
// the ordering between them exists. Its two callers, Run's orchestrator
// and the fabric coordinator, decide what to crawl and when to commit;
// the ledger decides what "durable" means (DESIGN.md §7):
//
//   - OpenLedger: load the checkpoint, check it against the crawl, repair
//     and verify the spool it vouches for, open or replay the store;
//   - Append / AppendLine: spool one page, then fold or ingest it;
//   - Commit: flush the spool, seal the store, record the shard extents,
//     publish the checkpoint atomically — in that order, so a checkpoint
//     never marks a job done whose pages are not durable in both sinks;
//   - Finalize: derive the dataset (store if present, else the live fold
//     on a fresh run, else a merge of the shards);
//   - Close: flush and release everything.
//
// All methods are safe for concurrent use. Finalize ends the append
// phase: it waits for appends in flight and later ones fail with
// ErrFinalized, so the dataset it returns is never folded into again.
type Ledger struct {
	cfg     LedgerConfig
	resumed *Checkpoint      // nil on a fresh run
	spool   *Spooler         // always set
	store   *colstore.Store  // nil without StoreDir
	folder  *analysis.Folder // non-nil only on a fresh run without a store

	commitMu sync.Mutex // serializes checkpoint generations

	appendMu  sync.RWMutex // held shared by appends, exclusively by Finalize
	finalized bool         // guarded by appendMu
}

// ErrFinalized is returned by appends that arrive after Finalize.
var ErrFinalized = errors.New("dispatch: ledger already finalized")

// OpenLedger opens a crawl's durable state, fresh or resumed. A resume
// whose checkpoint is corrupt, from another crawl, or vouching for more
// spool than is on disk fails with a *CheckpointError; a resume with no
// checkpoint file at all starts fresh. A failed open leaves the state on
// disk as it found it — in particular a fresh open over an existing
// store is refused before the spool is truncated.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	if cfg.SpoolDir == "" || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("dispatch: SpoolDir and CheckpointPath are required")
	}
	if cfg.Crawl.NumShards <= 0 {
		cfg.Crawl.NumShards = DefaultShards
	}
	cfg.Crawl.Version = CheckpointVersion
	l := &Ledger{cfg: cfg}
	if cfg.Resume {
		cp, lerr := LoadCheckpoint(cfg.CheckpointPath)
		switch {
		case lerr == nil:
			if cerr := cp.Compatible(cfg.CheckpointPath, &cfg.Crawl); cerr != nil {
				return nil, cerr
			}
			l.resumed = cp
		case errors.Is(lerr, fs.ErrNotExist):
			// Nothing to resume; run from scratch.
		default:
			return nil, lerr
		}
	}

	// Everything that can refuse the open comes before the spool, whose
	// fresh open truncates the shards: a store that already exists
	// without Resume must fail with the spool — the state a retry with
	// Resume continues from — untouched. Opening the store destroys
	// nothing and holds no file handle (it creates or replays; Commit
	// seals before it publishes, so the sealed segments cover every job a
	// checkpoint marks done), so a later failure has nothing to undo.
	var err error
	if cfg.StoreDir != "" {
		l.store, err = colstore.Open(colstore.Config{
			Dir:       cfg.StoreDir,
			NumShards: cfg.Crawl.NumShards,
			Meta:      cfg.Meta,
			Resume:    cfg.Resume,
		})
		if err != nil {
			return nil, err
		}
	}

	l.spool, err = OpenSpoolBatch(cfg.SpoolDir, cfg.Crawl.NumShards, l.resumed != nil, groupCommit)
	if err != nil {
		return nil, err
	}
	if l.resumed != nil {
		// The checkpoint promises its done jobs' pages are in the spool;
		// verify before skipping a single job, or a resume against the
		// wrong/empty spool would silently produce a partial dataset.
		if verr := l.spool.VerifyMinSizes(l.resumed.ShardBytes); verr != nil {
			l.spool.Close()
			return nil, &CheckpointError{Path: cfg.CheckpointPath, Version: l.resumed.Version, Reason: verr.Error(), Hint: hintStartFresh}
		}
	}

	if l.store == nil && l.resumed == nil {
		// A fresh run sees every record as it is spooled, so it folds them
		// live and skips the decode pass over the shards at the end. A
		// resumed run cannot: the shards already hold records that never
		// pass through this process, so Finalize merges them instead. The
		// output is identical either way — folding applies the merge's own
		// aggregation and deduplication.
		l.folder = analysis.NewFolder(cfg.Meta)
	}
	return l, nil
}

// Resumed returns the checkpoint this ledger resumed from: its Jobs, its
// FailedSites, its Done count. Nil on a fresh run.
func (l *Ledger) Resumed() *Checkpoint { return l.resumed }

// Store returns the live columnar store (nil without StoreDir), for the
// in-process query API. The ledger keeps ownership.
func (l *Ledger) Store() *colstore.Store { return l.store }

// Append spools one page record, then folds or ingests it. The page is
// durable once a later Commit returns.
func (l *Ledger) Append(rec *analysis.PageRecord) error {
	return l.append(rec, func(w *bufio.Writer) error {
		return analysis.EncodeSpoolRecord(w, rec)
	})
}

// AppendLine is Append for a page a fabric worker already encoded: line
// is one spool line (without its newline) for a page of site. It is
// decoded once — which is also what keeps bytes that are not that site's
// page record out of the spool — written verbatim, and the decoded
// record goes to the fold or store.
func (l *Ledger) AppendLine(site string, line []byte) error {
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("dispatch: page line spans several lines")
	}
	rec, err := analysis.DecodeSpoolLine(line)
	if err != nil {
		return err
	}
	if rec.Site == "" || rec.Site != site {
		return fmt.Errorf("dispatch: page line is for site %q, want %q", rec.Site, site)
	}
	return l.append(rec, func(w *bufio.Writer) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		return w.WriteByte('\n')
	})
}

// append is the one way bytes reach a shard: write renders rec's spool
// line into its shard, then rec goes to the dataset side.
func (l *Ledger) append(rec *analysis.PageRecord, write func(w *bufio.Writer) error) error {
	l.appendMu.RLock()
	defer l.appendMu.RUnlock()
	if l.finalized {
		return ErrFinalized
	}
	span := obs.StartSpan(obs.CrawlCommit)
	if err := l.spool.append(rec.Site, write); err != nil {
		return err
	}
	span.End()
	return l.sink(rec)
}

// sink hands a spooled record to the dataset side. It runs after the
// spool append, so the spool stays a superset of the store: a record the
// store sealed is always recoverable from the spool too. Re-crawled
// duplicates fold to nothing exactly as they dedup in a merge.
func (l *Ledger) sink(rec *analysis.PageRecord) error {
	switch {
	case l.store != nil:
		_, err := l.store.Ingest(rec)
		return err
	case l.folder != nil:
		l.folder.Fold(rec)
	}
	return nil
}

// Commit publishes one checkpoint generation. snapshot is called under
// the commit lock and must return the job states (and, in batch mode,
// the per-site failures) to record. Everything a done job appended
// happened before the snapshot, so the flush and seal that follow cover
// it, and the extents read after them are the durable sizes the
// checkpoint vouches for. Any failure leaves the previous checkpoint
// file in place — a stale checkpoint only costs re-crawling, one without
// its spool guard would let a resume skip pages that are gone.
func (l *Ledger) Commit(snapshot func() (jobs []JobRecord, failedSites map[string]string)) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	span := obs.StartSpan(obs.StageCheckpoint)
	defer func() {
		span.End()
		obs.CheckpointWrites.Inc()
	}()
	cp := l.cfg.Crawl
	jobs, failedSites := snapshot()
	cp.SetJobs(jobs)
	cp.FailedSites = failedSites
	if err := l.spool.Flush(); err != nil {
		return err
	}
	if l.store != nil {
		if err := l.store.Seal(); err != nil {
			return err
		}
	}
	sizes, err := l.spool.ShardSizes()
	if err != nil {
		return err
	}
	cp.ShardBytes = sizes
	return cp.WriteAtomic(l.cfg.CheckpointPath)
}

// Finalize derives the crawl's dataset by the one rule: from the store
// when there is one (it folded this run's pages at ingest and prior
// runs' at replay), else from the live fold on a fresh run, else by
// merging the shards with their flushed sizes as the floor — which turns
// a torn tail into the hard error it is once crash remnants were
// repaired at open. All three are byte-identical over the same pages.
func (l *Ledger) Finalize() (*analysis.Dataset, analysis.MergeStats, error) {
	l.appendMu.Lock()
	l.finalized = true
	l.appendMu.Unlock()
	// Flush the group-commit tail whichever path runs: the shards are
	// the merge's input, the store path's differential oracle, and the
	// durable resume source.
	if err := l.spool.Flush(); err != nil {
		return nil, analysis.MergeStats{}, err
	}
	switch {
	case l.store != nil:
		ds, stats := l.store.Finalize()
		return ds, stats, nil
	case l.folder != nil:
		ds, stats := l.folder.Finalize()
		stats.Shards = l.spool.NumShards()
		return ds, stats, nil
	}
	sizes, err := l.spool.ShardSizes()
	if err != nil {
		return nil, analysis.MergeStats{}, err
	}
	return analysis.MergeShardsOpts(l.cfg.Meta, l.spool.Paths(), analysis.MergeOptions{MinShardBytes: sizes})
}

// Close flushes and closes the spool and seals the store's tail, so the
// on-disk store holds everything appended (wsquery over a finished crawl
// needs no live process). It does not write a checkpoint.
func (l *Ledger) Close() error {
	err := l.spool.Close()
	if l.store != nil {
		if serr := l.store.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
