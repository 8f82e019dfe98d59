package dispatch

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/obs"
)

// LedgerConfig locates and identifies one crawl's durable state.
type LedgerConfig struct {
	// Crawl is the checkpoint header: the identity (Name, Seed,
	// PagesPerSite, TotalSites) every checkpoint this ledger writes
	// carries and a resumed one must match. OpenLedger sets Version and
	// NumShards (DefaultShards); progress fields are ignored.
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

	commitEvery int // settled attempts per commit: max(8, TotalSites/128) unless a test pins kill points
}

// Ledger owns a crawl's durable state — the spool, the optional columnar
// store, the live fold and the checkpoint file — and is the only place
// the ordering between them exists. Its callers — Run's worker loops and
// the fabric coordinator's sessions — decide what to crawl and settle
// their grants; the ledger decides when to commit and what "durable"
// means (DESIGN.md §7):
//
//   - OpenLedger: load the checkpoint, check it against the crawl, open
//     or replay the store, replay the spool the checkpoint vouches for
//     (folding it when there is no store) and cut a crash remnant;
//   - AppendLine: spool one page line, then fold or ingest its record;
//   - Settled: the one commit rule, once every max(8, TotalSites/128)
//     settled attempts — about 128 checkpoints per crawl;
//   - Commit: flush the spool, seal the store, record the shard extents,
//     publish the checkpoint atomically — in that order, so a checkpoint
//     never marks a job done whose pages are not in a sealed segment and
//     flushed to the spool. Segments and checkpoints are fsynced; the
//     spool is not, so a killed process always resumes, while after an
//     OS crash or power loss a resume may be refused (start fresh);
//   - Finalize: finalize the fold (the store's when there is one);
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
	folder  *analysis.Folder // nil with a store, which owns the fold

	commitMu sync.Mutex // serializes checkpoint generations

	sinceCommit atomic.Int64 // attempts settled since Settled last committed

	appendMu  sync.RWMutex // held shared by appends, exclusively by Finalize
	finalized bool         // guarded by appendMu

	// decoders recycles the fold's line decoders, whose records the fold
	// drops (a store keeps its records, so it decodes fresh ones). It is
	// a free list rather than a sync.Pool so the race detector's random
	// pool drops do not leak into the allocation budget.
	decoders chan *analysis.SpoolDecoder
}

// ErrFinalized is returned by appends that arrive after Finalize.
var ErrFinalized = errors.New("dispatch: ledger already finalized")

// OpenLedger opens a crawl's durable state, fresh or resumed. A resume
// whose checkpoint is corrupt, from another crawl, or vouching for spool
// bytes that are gone or changed fails with a *CheckpointError; a resume
// with no checkpoint file at all starts fresh. A failed open leaves the
// spool and the checkpoint as it found them — in particular a fresh open
// over an existing store is refused before the spool is truncated.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	if cfg.SpoolDir == "" || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("dispatch: SpoolDir and CheckpointPath are required")
	}
	if cfg.commitEvery <= 0 {
		cfg.commitEvery = max(8, cfg.Crawl.TotalSites/128)
	}
	cfg.Crawl.Version = CheckpointVersion
	cfg.Crawl.NumShards = DefaultShards
	l := &Ledger{cfg: cfg}
	if cfg.StoreDir == "" {
		l.folder = analysis.NewFolder(cfg.Meta)
		// One decoder per concurrent append: 16 covers the worker
		// counts crawls run with; a decoder returned to a full list is
		// left to the collector.
		l.decoders = make(chan *analysis.SpoolDecoder, 16)
	}
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

	// Everything that can refuse the open comes before the spool is
	// written: a fresh open truncates the shards, so a store that already
	// exists without Resume must fail with the spool — the state a retry
	// with Resume continues from — untouched. Opening the store destroys
	// nothing and holds no file handle (it creates or replays; Commit
	// seals before it publishes, so the sealed segments cover every job a
	// checkpoint marks done), so a later failure has nothing to undo.
	var err error
	if cfg.StoreDir != "" {
		l.store, err = colstore.Open(colstore.Config{
			Dir:    cfg.StoreDir,
			Meta:   cfg.Meta,
			Resume: cfg.Resume,
		})
		if err != nil {
			return nil, err
		}
	}
	if l.resumed != nil {
		// The checkpoint promises its done jobs' pages are in the spool;
		// replay it before skipping a single job, or a resume against the
		// wrong, short or damaged spool would produce a partial dataset.
		if err := l.replaySpool(); err != nil {
			return nil, err
		}
	}
	l.spool, err = openSpool(cfg.SpoolDir, l.resumed != nil)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// replaySpool is a resumed open's one read of the spool. It reads each
// shard once: every complete line is folded into the ledger's fold or,
// with a store (which replays its own segments), only scanned. Each
// shard is then judged against the extent the checkpoint recorded for
// it. A shard shorter than its extent, a torn last line that starts
// inside it, or a complete line that does not decode means the spool
// lost or changed bytes the checkpoint vouched for: the open is refused.
// A torn line at or past the extent is what a crash mid-flush leaves,
// and is cut — but only once every shard has passed, so a refusal
// changes no byte.
func (l *Ledger) replaySpool() error {
	cp := l.resumed
	refuse := func(format string, args ...any) error {
		return &CheckpointError{Path: l.cfg.CheckpointPath, Version: cp.Version, Reason: fmt.Sprintf(format, args...), Hint: hintStartFresh}
	}
	if len(cp.ShardBytes) != DefaultShards {
		return refuse("checkpoint recorded %d spool shards, the spool has %d", len(cp.ShardBytes), DefaultShards)
	}
	type cut struct {
		path string
		keep int64
	}
	var cuts []cut
	br := bufio.NewReaderSize(nil, 64*1024) // one read buffer for every shard
	var dec analysis.SpoolDecoder
	for i, extent := range cp.ShardBytes {
		name := shardName(i)
		path := filepath.Join(l.cfg.SpoolDir, name)
		size, complete, bad, err := replayShard(path, br, &dec, l.folder)
		switch {
		case err != nil:
			return err
		case bad != "":
			return refuse("spool shard %s %s", name, bad)
		case size < extent:
			return refuse("spool shard %s holds %d bytes, checkpoint recorded %d — spool does not match checkpoint", name, size, extent)
		case complete < extent:
			return refuse("spool shard %s: torn line at offset %d inside the checkpoint's extent of %d bytes — spool does not match checkpoint", name, complete, extent)
		case complete < size:
			cuts = append(cuts, cut{path, complete})
		}
	}
	for _, c := range cuts {
		if err := os.Truncate(c.path, c.keep); err != nil {
			return fmt.Errorf("dispatch: cut torn spool tail: %w", err)
		}
	}
	return nil
}

// replayShard reads one spool shard, folding each complete line dec
// decodes into fold (nil: only scanning it), and returns the shard's
// size and the length of its complete-line prefix. A complete line that
// does not decode stops the read and comes back as bad, naming the line.
// A missing shard is empty.
func replayShard(path string, br *bufio.Reader, dec *analysis.SpoolDecoder, fold *analysis.Folder) (size, complete int64, bad string, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, "", nil
	}
	if err != nil {
		return 0, 0, "", fmt.Errorf("dispatch: replay spool: %w", err)
	}
	defer f.Close()
	br.Reset(f)
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		size += int64(len(raw))
		if err == io.EOF {
			return size, complete, "", nil
		}
		if err != nil {
			return 0, 0, "", fmt.Errorf("dispatch: replay spool %s: %w", path, err)
		}
		complete = size
		if fold == nil || len(raw) == 1 {
			continue
		}
		rec, err := decodeLine(dec, raw[:len(raw)-1])
		if err != nil {
			return 0, 0, fmt.Sprintf("line %d: %v", line, err), nil
		}
		fold.Fold(rec)
	}
}

// Resumed returns the checkpoint this ledger resumed from: its Jobs and
// its Done count. Nil on a fresh run.
func (l *Ledger) Resumed() *Checkpoint { return l.resumed }

// Store returns the live columnar store (nil without StoreDir), for the
// in-process query API. The ledger keeps ownership.
func (l *Ledger) Store() *colstore.Store { return l.store }

// AppendLine is the ledger's one entry for pages: line is one spool
// line (without its newline) for a page of site, as a grant runner
// emitted it — in-process or from a fabric worker. It is decoded once,
// which is also what keeps bytes that are not that site's page record
// out of the spool, written verbatim, and the decoded record goes to the
// fold or store: the live fold and a resume's replay fold the same
// decoded bytes. The page is committed once a later Commit returns.
func (l *Ledger) AppendLine(site string, line []byte) error {
	span := obs.StartSpan(obs.CrawlCommit)
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("dispatch: page line spans several lines")
	}
	var dec *analysis.SpoolDecoder
	if l.decoders != nil {
		select {
		case dec = <-l.decoders:
		default:
			dec = new(analysis.SpoolDecoder)
		}
		defer func() {
			select {
			case l.decoders <- dec:
			default:
			}
		}()
	}
	rec, err := decodeLine(dec, line)
	if err != nil {
		return err
	}
	if rec.Site == "" || rec.Site != site {
		return fmt.Errorf("dispatch: page line is for site %q, want %q", rec.Site, site)
	}
	l.appendMu.RLock()
	defer l.appendMu.RUnlock()
	if l.finalized {
		return ErrFinalized
	}
	if err := l.spool.append(site, func(dst []byte) ([]byte, error) {
		return append(append(dst, line...), '\n'), nil
	}); err != nil {
		return err
	}
	span.End()
	return l.sink(rec)
}

// decodeLine decodes one spool line with dec (nil: into a fresh record)
// into a record the fold and the store can take: both read every HTTP
// entry, so a null one is refused.
func decodeLine(dec *analysis.SpoolDecoder, line []byte) (*analysis.PageRecord, error) {
	rec, err := dec.Decode(line)
	if err != nil {
		return nil, err
	}
	for _, t := range rec.HTTP {
		if t == nil {
			return nil, fmt.Errorf("dispatch: page record has a null HTTP entry")
		}
	}
	return rec, nil
}

// sink hands a spooled record to the fold. It runs after the spool
// append, so the spool stays a superset of the store: a record the store
// sealed is always recoverable from the spool too. Re-crawled duplicates
// fold to nothing, as replayed ones do.
func (l *Ledger) sink(rec *analysis.PageRecord) error {
	if l.store != nil {
		_, err := l.store.Ingest(rec)
		return err
	}
	l.folder.Fold(rec)
	return nil
}

// Settled is the one commit rule: Grant.Settle reports every settle of n
// attempts (complete or fail), and the ledger commits, at most once per
// call, once max(8, TotalSites/128) have settled since it last did — so a
// crawl writes about 128 checkpoints, O(N) bytes in all. snapshot is
// Commit's; a failed commit costs only re-crawling, as the next retries.
func (l *Ledger) Settled(n int, snapshot func() []JobRecord) error {
	since := l.sinceCommit.Add(int64(n))
	if since < int64(l.cfg.commitEvery) || !l.sinceCommit.CompareAndSwap(since, 0) {
		return nil // not due, or a later settle takes the commit
	}
	return l.Commit(snapshot)
}

// Commit publishes one checkpoint generation. snapshot is called under
// the commit lock and must return the job states to record. Everything a
// done job appended happened before the snapshot, so the flush and seal
// that follow cover it, and the extents read after them are the flushed
// sizes the checkpoint vouches for. Any failure leaves the previous checkpoint
// file in place — a stale checkpoint only costs re-crawling, one without
// its spool guard would let a resume skip pages that are gone.
func (l *Ledger) Commit(snapshot func() []JobRecord) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	span := obs.StartSpan(obs.StageCheckpoint)
	defer func() {
		span.End()
		obs.CheckpointWrites.Inc()
	}()
	cp := l.cfg.Crawl
	cp.SetJobs(snapshot())
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

// Finalize derives the crawl's dataset by its one rule: finalize the
// fold. The store owns the fold when there is one (it folded this run's
// pages at ingest and earlier runs' at its replay); otherwise the
// ledger's own fold holds this run's pages and, on a resume, every page
// the spool replay folded at open.
func (l *Ledger) Finalize() (*analysis.Dataset, analysis.MergeStats, error) {
	l.appendMu.Lock()
	l.finalized = true
	l.appendMu.Unlock()
	// Flush the group-commit tail: the shards are the durable resume
	// source and the oracle the tests hold the fold to.
	if err := l.spool.Flush(); err != nil {
		return nil, analysis.MergeStats{}, err
	}
	finalize := l.folder.Finalize
	if l.store != nil {
		finalize = l.store.Finalize
	}
	ds, stats := finalize()
	stats.Shards = l.spool.NumShards()
	return ds, stats, nil
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
