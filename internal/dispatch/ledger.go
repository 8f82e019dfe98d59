package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/obs"
)

// CheckpointError reports crawl state a resume cannot continue: a
// damaged or gapped store, a store of another format version, or one of
// another crawl. It is a hard error by design — resuming past it would
// silently produce a partial crawl — and it always carries an actionable
// hint.
type CheckpointError struct {
	// Path is the store directory.
	Path string
	// Version is the store's format version (0 when undecodable).
	Version int
	// Reason says what is wrong.
	Reason string
	// Hint says what the operator should do about it.
	Hint string
}

// Error renders the versioned, actionable message.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("dispatch: crawl state %s (format v%d): %s — %s", e.Path, e.Version, e.Reason, e.Hint)
}

// hintStartFresh is the standard remediation for unusable crawl state.
const hintStartFresh = "delete the store directory to start the crawl from scratch"

// hintWrongCrawl is the remediation for another crawl's state.
const hintWrongCrawl = "point -store-dir (or -state) at the original crawl's store, or match the original crawl's flags"

// Ledger owns a crawl's durable state — the columnar store, which holds
// its pages, the outcome row of every settled attempt, and their fold —
// and is the only place the ordering between them exists. Its callers —
// Run's worker loops and the fabric coordinator's sessions — decide what
// to crawl and settle their grants; the ledger decides when to commit
// and what "durable" means (DESIGN.md §7):
//
//   - OpenLedger: open the store — a resume replays its sealed segments
//     into the fold, and Restore rebuilds a queue from their rows;
//   - Append: ingest one page record;
//   - Settled: append a settle's or a reclaim's outcome rows after
//     their sites' pages, and apply the one commit rule, once every
//     max(8, TotalSites/128) settled attempts — about 128 commits per
//     crawl;
//   - Commit: seal the store. A sealed prefix that holds a site's row
//     holds its pages, so a commit never marks a site done whose pages
//     are not durable. Segments are fsynced, so a resume survives a
//     killed process and an OS crash alike;
//   - Finalize: finalize the store's fold;
//   - Close: commit the store's tail.
//
// All methods are safe for concurrent use. Finalize ends the append
// phase: it waits for appends in flight and later ones fail with
// ErrFinalized, so the dataset it returns is never folded into again.
type Ledger struct {
	commitEvery int // settled attempts per commit
	store       *colstore.Store

	sinceCommit atomic.Int64 // attempts settled since Settled last committed

	appendMu  sync.RWMutex // held shared by appends, exclusively by Finalize
	finalized bool         // guarded by appendMu
}

// ErrFinalized is returned by appends that arrive after Finalize.
var ErrFinalized = errors.New("dispatch: ledger already finalized")

// OpenLedger opens a crawl's durable state, fresh or resumed: the
// columnar store cfg locates and identifies (fabric.StoreConfig derives
// it from a crawl's config), whose sealed segments every page and every
// settled attempt's outcome row end up in — the crawl's one durable
// state, queryable with cmd/wsquery while the crawl runs, and the source
// of its dataset. A resume over a store that is damaged, has a gap in its
// segments, is of another format version or of another crawl fails with
// a *CheckpointError; one with no store starts fresh. Opening writes
// nothing but a new store's manifest, so a failed open leaves the state
// as it found it.
func OpenLedger(cfg colstore.Config) (*Ledger, error) { return openLedger(cfg, 0) }

// openLedger is OpenLedger with the commit cadence pinned: commitEvery
// settled attempts per commit, or max(8, TotalSites/128) when it is zero.
// Only tests pin it, to place kill points.
func openLedger(cfg colstore.Config, commitEvery int) (*Ledger, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("dispatch: the store's Dir is required")
	}
	if commitEvery <= 0 {
		commitEvery = max(8, cfg.TotalSites/128)
	}
	store, err := colstore.Open(cfg)
	if err != nil && cfg.Resume {
		var damaged *colstore.DamagedSegmentError
		var manifest *colstore.ManifestError
		switch {
		case errors.As(err, &damaged):
			// A damaged or missing sealed segment cannot be replayed or
			// repaired, and its rows may mark sites done.
			return nil, &CheckpointError{Path: cfg.Dir, Version: colstore.ManifestVersion, Reason: err.Error(), Hint: hintStartFresh}
		case errors.As(err, &manifest) && manifest.Foreign:
			return nil, &CheckpointError{Path: cfg.Dir, Version: manifest.Version, Reason: err.Error(), Hint: hintWrongCrawl}
		case errors.As(err, &manifest):
			return nil, &CheckpointError{Path: cfg.Dir, Version: manifest.Version, Reason: err.Error(), Hint: hintStartFresh}
		}
	}
	if err != nil {
		return nil, err
	}
	return &Ledger{commitEvery: commitEvery, store: store}, nil
}

// Restore rebuilds a fresh queue from the outcome rows the store
// replayed, and returns how many sites they mark done. Only settled
// attempts count: an attempt killed in flight left no row, so its site
// re-runs without spending budget, as a released one does; one a lease
// expiry reclaimed left its row.
func (l *Ledger) Restore(q *Queue) (done int) {
	return q.restore(l.store.TakeOutcomes())
}

// Store returns the live columnar store, for the in-process query API.
// The ledger keeps ownership.
func (l *Ledger) Store() *colstore.Store { return l.store }

// Append is the ledger's one entry for pages: rec is one page record of
// site, as a grant runner emitted it — in-process, or decoded from a
// fabric worker's page block. A record of another site, or one whose
// lists are not in the ascending key order the store's decoder holds
// segments to (analysis.PageRecord.CheckOrder), is refused; any other
// is ingested: folded, and encoded into the next segment. The store keeps rec's strings and socket records, so a
// record must own them (analysis.Recorder's do) and must not change
// once appended. The page is committed once a later Commit returns.
func (l *Ledger) Append(site string, rec *analysis.PageRecord) error {
	span := obs.StartSpan(obs.CrawlCommit)
	if rec.Site == "" || rec.Site != site {
		return fmt.Errorf("dispatch: page record is for site %q, want %q", rec.Site, site)
	}
	if err := rec.CheckOrder(); err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	l.appendMu.RLock()
	defer l.appendMu.RUnlock()
	if l.finalized {
		return ErrFinalized
	}
	// Re-crawled duplicates fold to nothing, as replayed ones do.
	_, err := l.store.Ingest(rec)
	span.End()
	return err
}

// Settled is the one commit rule: Grant.Settle reports the outcome rows
// of every settle (complete or fail) after its sites' pages were
// appended, Queue.Grant those of every lease a claim reclaimed, and the
// ledger appends them and commits, at most once per call, once
// max(8, TotalSites/128) attempts have settled since it last did — so a
// crawl seals about 128 commits, O(N) bytes in all. A failed
// commit costs only re-crawling, as the next retries it.
func (l *Ledger) Settled(rows []colstore.Outcome) error {
	if err := l.store.AppendOutcomes(rows...); err != nil {
		return err
	}
	since := l.sinceCommit.Add(int64(len(rows)))
	if since < int64(l.commitEvery) || !l.sinceCommit.CompareAndSwap(since, 0) {
		return nil // not due, or a later settle takes the commit
	}
	return l.Commit()
}

// Commit seals everything appended so far — pages and outcome rows —
// into the store's next segment, and counts a checkpoint write; with
// nothing appended, which a concurrent commit may have sealed first, it
// writes and counts nothing. A failed seal keeps its bytes for the next
// one, and costs a crash in between only re-crawling.
func (l *Ledger) Commit() error {
	span := obs.StartSpan(obs.StageCheckpoint)
	defer span.End()
	sealed, err := l.store.SealPending()
	if sealed && err == nil {
		obs.CheckpointWrites.Inc()
	}
	return err
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

// Close commits the store's tail, so the on-disk store holds everything
// appended (wsquery over a finished crawl needs no live process) and a
// later resume continues from every settled attempt.
func (l *Ledger) Close() error { return l.Commit() }
