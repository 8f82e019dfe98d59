package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
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
	// carries and a resumed one must match. OpenLedger sets Version;
	// progress fields are ignored.
	Crawl Checkpoint
	// Meta names the derived dataset (and, with Crawl, the store's
	// identity).
	Meta analysis.DatasetMeta
	// CheckpointPath is the crawl's durable state file. Required.
	CheckpointPath string
	// StoreDir is the columnar store every page is ingested into: the
	// crawl's one durable record of its pages, queryable with
	// cmd/wsquery while the crawl runs, and the source of its dataset.
	// Required.
	StoreDir string
	// Resume loads CheckpointPath (when present) and continues from it
	// instead of starting from scratch.
	Resume bool

	commitEvery int // settled attempts per commit: max(8, TotalSites/128) unless a test pins kill points
}

// Ledger owns a crawl's durable state — the columnar store, which holds
// its pages and their fold, and the checkpoint file — and is the only
// place the ordering between them exists. Its callers — Run's worker
// loops and the fabric coordinator's sessions — decide what to crawl and
// settle their grants; the ledger decides when to commit and what
// "durable" means (DESIGN.md §7):
//
//   - OpenLedger: load the checkpoint, check it against the crawl, open
//     the store (a resume replays its sealed segments into the fold) and
//     check that every segment the checkpoint vouches for was there;
//   - AppendLine: decode one page line and ingest its record;
//   - Settled: the one commit rule, once every max(8, TotalSites/128)
//     settled attempts — about 128 checkpoints per crawl;
//   - Commit: seal the store, then publish the checkpoint, which records
//     how many sealed segments it vouches for, atomically — in that
//     order, so a checkpoint never marks a job done whose pages are not
//     in a sealed segment. Segments and checkpoints are fsynced, so a
//     resume survives a killed process and an OS crash alike;
//   - Finalize: finalize the store's fold;
//   - Close: seal the store's tail.
//
// All methods are safe for concurrent use. Finalize ends the append
// phase: it waits for appends in flight and later ones fail with
// ErrFinalized, so the dataset it returns is never folded into again.
type Ledger struct {
	cfg     LedgerConfig
	resumed *Checkpoint // nil on a fresh run
	store   *colstore.Store

	commitMu sync.Mutex // serializes checkpoint generations

	sinceCommit atomic.Int64 // attempts settled since Settled last committed

	appendMu  sync.RWMutex // held shared by appends, exclusively by Finalize
	finalized bool         // guarded by appendMu

	// decoders recycles the line decoders, whose records the store keeps
	// nothing of but strings. It is a free list rather than a sync.Pool
	// so the race detector's random pool drops do not leak into the
	// allocation budget.
	decoders chan *analysis.SpoolDecoder
}

// ErrFinalized is returned by appends that arrive after Finalize.
var ErrFinalized = errors.New("dispatch: ledger already finalized")

// OpenLedger opens a crawl's durable state, fresh or resumed. A resume
// whose checkpoint is corrupt, from another crawl, or vouching for
// sealed segments that are gone or damaged fails with a
// *CheckpointError, and one over a store of another crawl fails too; a
// resume with no checkpoint file at all replays whatever its own
// crawl's store holds, and starts fresh without one. A failed open leaves the store and the checkpoint
// as it found them.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	if cfg.StoreDir == "" || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("dispatch: StoreDir and CheckpointPath are required")
	}
	if cfg.commitEvery <= 0 {
		cfg.commitEvery = max(8, cfg.Crawl.TotalSites/128)
	}
	cfg.Crawl.Version = CheckpointVersion
	// One decoder per concurrent append: 16 covers the worker counts
	// crawls run with; a decoder returned to a full list is left to the
	// collector.
	l := &Ledger{cfg: cfg, decoders: make(chan *analysis.SpoolDecoder, 16)}
	if cfg.Resume {
		cp, lerr := LoadCheckpoint(cfg.CheckpointPath)
		switch {
		case lerr == nil:
			if cerr := cp.Compatible(cfg.CheckpointPath, &cfg.Crawl); cerr != nil {
				return nil, cerr
			}
			l.resumed = cp
		case errors.Is(lerr, fs.ErrNotExist):
			// Nothing to skip; run every site.
		default:
			return nil, lerr
		}
	}

	// The store pins the crawl's whole identity, so a resume over
	// another crawl's store — with or without a checkpoint — is refused
	// before a segment is folded. Opening it writes nothing but a new
	// store's manifest.
	var err error
	l.store, err = colstore.Open(colstore.Config{
		Dir:          cfg.StoreDir,
		Meta:         cfg.Meta,
		Seed:         cfg.Crawl.Seed,
		PagesPerSite: cfg.Crawl.PagesPerSite,
		TotalSites:   cfg.Crawl.TotalSites,
		Resume:       cfg.Resume,
	})
	var damaged *colstore.DamagedSegmentError
	if err != nil && l.resumed != nil && errors.As(err, &damaged) {
		// A damaged sealed segment cannot be replayed or repaired, and
		// the checkpoint's done jobs may have their pages in it.
		return nil, &CheckpointError{Path: cfg.CheckpointPath, Version: l.resumed.Version, Reason: err.Error(), Hint: hintStartFresh}
	}
	if err != nil {
		return nil, err
	}
	if cp := l.resumed; cp != nil {
		// The checkpoint promises its done jobs' pages are in the
		// segments it vouches for; resuming without one of them would
		// skip those pages and produce a partial dataset.
		if name := l.store.MissingSegment(cp.Segments); name != "" {
			return nil, &CheckpointError{
				Path: cfg.CheckpointPath, Version: cp.Version,
				Reason: fmt.Sprintf("store segment %s is missing: the checkpoint vouches for %d sealed segments in %s", name, cp.Segments, cfg.StoreDir),
				Hint:   hintStartFresh,
			}
		}
	}
	return l, nil
}

// Resumed returns the checkpoint this ledger resumed from: its Jobs and
// its Done count. Nil on a fresh run.
func (l *Ledger) Resumed() *Checkpoint { return l.resumed }

// Store returns the live columnar store, for the in-process query API.
// The ledger keeps ownership.
func (l *Ledger) Store() *colstore.Store { return l.store }

// AppendLine is the ledger's one entry for pages: line is one spool
// line (without its newline) for a page of site, as a grant runner
// emitted it — in-process or from a fabric worker. It is decoded once,
// which is also what keeps bytes that are not that site's page record
// out of the store, and the record is ingested: folded, and encoded
// into the next segment. The page is committed once a later Commit
// returns.
func (l *Ledger) AppendLine(site string, line []byte) error {
	span := obs.StartSpan(obs.CrawlCommit)
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("dispatch: page line spans several lines")
	}
	var dec *analysis.SpoolDecoder
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
	rec, err := dec.Decode(line)
	if err != nil {
		return err
	}
	// The fold and the store read every HTTP entry.
	for _, t := range rec.HTTP {
		if t == nil {
			return fmt.Errorf("dispatch: page record has a null HTTP entry")
		}
	}
	if rec.Site == "" || rec.Site != site {
		return fmt.Errorf("dispatch: page line is for site %q, want %q", rec.Site, site)
	}
	l.appendMu.RLock()
	defer l.appendMu.RUnlock()
	if l.finalized {
		return ErrFinalized
	}
	// Re-crawled duplicates fold to nothing, as replayed ones do.
	_, err = l.store.Ingest(rec)
	span.End()
	return err
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
// done job appended happened before the snapshot, so the seal that
// follows covers it, and the segment count read after it is what the
// checkpoint vouches for. Any failure leaves the previous checkpoint
// file in place — a stale checkpoint only costs re-crawling.
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
	if err := l.store.Seal(); err != nil {
		return err
	}
	cp.Segments = l.store.Sealed()
	return cp.WriteAtomic(l.cfg.CheckpointPath)
}

// Finalize derives the crawl's dataset: the store's fold, which took
// this run's pages at ingest and, on a resume, earlier runs' at its
// replay.
func (l *Ledger) Finalize() (*analysis.Dataset, analysis.MergeStats) {
	l.appendMu.Lock()
	l.finalized = true
	l.appendMu.Unlock()
	return l.store.Finalize()
}

// Close seals the store's tail, so the on-disk store holds everything
// appended (wsquery over a finished crawl needs no live process). It
// does not write a checkpoint.
func (l *Ledger) Close() error { return l.store.Close() }
