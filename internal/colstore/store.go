// Package colstore is the embedded append-only columnar dataset store:
// every crawl's one durable record of its pages, its fold, and the
// query service over it.
//
// PageRecords are ingested incrementally as the crawl runs. Each record
// folds straight into the incremental Table 1–5 aggregation (an
// analysis.Folder) and is encoded into the columns of the next segment,
// so the store keeps no record once Ingest returns. At every
// group-commit boundary — and whenever the buffer reaches SegmentPages —
// the buffered columns are sealed into one immutable dictionary-encoded
// segment file: written to a temp file, fsynced, renamed into place, and
// made durable with a parent-directory sync (SyncDir documents that
// contract). A sealed segment is therefore all-or-nothing: recovery
// either sees the complete CRC-verified file or no file at all, and
// anything in between is a hard error, never a skip.
//
// Recovery replays sealed segments through the fold in seq order.
// Records deduplicate by (site, pageURL) with first-occurrence wins, so
// a crawl killed mid-run and resumed converges on the same dataset:
// sites the checkpoint marked done were sealed before the checkpoint
// was written (the dispatch ledger seals, then publishes), and
// everything else is re-crawled deterministically and deduplicated on
// re-ingest. store.json pins the crawl's identity, so a resume never
// folds another crawl's segments.
//
// The read side (query.go, http.go) serves filter/group-by queries over
// snapshots of the fold; OpenRead opens a store read-only — of a live
// crawl included — and Rescan picks up newly sealed segments.
package colstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// DamagedSegmentError is a sealed segment that fails validation on
// replay: post-publish damage, or a file moved into another's place.
type DamagedSegmentError struct {
	Name string // the segment's file name
	Err  error  // what its validation found
}

func (e *DamagedSegmentError) Error() string {
	return fmt.Sprintf("colstore: sealed segment %s is damaged: %v", e.Name, e.Err)
}

func (e *DamagedSegmentError) Unwrap() error { return e.Err }

// manifestName is the store's identity file, written once at creation.
const manifestName = "store.json"

// manifestVersion is the on-disk store format version. Version 3 pins
// the seed, page budget and site count beside the dataset identity.
const manifestVersion = 3

// manifest pins the store's identity so a resume (or a reader) cannot
// mix segments from a different crawl into one dataset.
type manifest struct {
	Version      int    `json:"version"`
	Name         string `json:"name"`
	Era          string `json:"era,omitempty"`
	CrawlIndex   int    `json:"crawlIndex"`
	Seed         int64  `json:"seed"`
	PagesPerSite int    `json:"pagesPerSite"`
	TotalSites   int    `json:"totalSites"`
}

func (m *manifest) String() string {
	return fmt.Sprintf("crawl %q (era %q, index %d, seed %d, %d pages × %d sites)",
		m.Name, m.Era, m.CrawlIndex, m.Seed, m.PagesPerSite, m.TotalSites)
}

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory (created if missing).
	Dir string
	// NumShards is read by nothing: the store has one append sequence.
	// It stays declared only so bench/ compiles until ROADMAP 1(b).
	NumShards int
	// Meta names the crawl; it becomes the dataset identity.
	Meta analysis.DatasetMeta
	// Seed, PagesPerSite and TotalSites complete the crawl's identity:
	// store.json pins them beside Meta, and a resume of a store that
	// names another crawl is refused.
	Seed         int64
	PagesPerSite int
	TotalSites   int
	// Resume accepts an existing store directory and replays its sealed
	// segments. Without Resume the directory must be empty of store
	// state.
	Resume bool
	// SegmentPages caps the buffered records before an automatic seal
	// (default 512). Explicit Seal calls flush smaller segments at
	// group-commit boundaries.
	SegmentPages int
}

// Store is the embedded columnar store. All methods are safe for
// concurrent use; Ingest runs on crawl worker goroutines.
type Store struct {
	dir      string
	id       manifest
	segPages int
	readonly bool

	folder *analysis.Folder

	// segMu is held by a seal from taking the buffer until the segment
	// is published or kept for a retry, so a Seal that returns has seen
	// every seal before it finish; and by a replay from listing the
	// segments until it has marked them consumed, so concurrent rescans
	// fold each segment once.
	segMu sync.Mutex
	spare *segEncoder // the last sealed buffer, reset; guarded by segMu
	retry []byte      // a segment whose publish failed, sealed again first; guarded by segMu

	mu       sync.Mutex
	pending  *segEncoder     // the records buffered for the next segment; guarded by mu
	seq      int             // next segment seq; guarded by mu
	segments int             // sealed segments; guarded by mu
	consumed map[string]bool // segment files folded; guarded by segMu
	pages    int             // distinct records folded; guarded by mu
	dups     int             // duplicates dropped; guarded by mu
}

// Open creates or resumes a writable store.
func Open(cfg Config) (*Store, error) {
	if cfg.SegmentPages <= 0 {
		cfg.SegmentPages = 512
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: open: %w", err)
	}
	s := &Store{
		dir: cfg.Dir,
		id: manifest{
			Version: manifestVersion,
			Name:    cfg.Meta.Name, Era: cfg.Meta.Era, CrawlIndex: cfg.Meta.CrawlIndex,
			Seed: cfg.Seed, PagesPerSite: cfg.PagesPerSite, TotalSites: cfg.TotalSites,
		},
		segPages: cfg.SegmentPages,
		folder:   analysis.NewFolder(cfg.Meta),
		pending:  new(segEncoder),
		consumed: map[string]bool{},
	}
	m, err := loadManifest(cfg.Dir)
	switch {
	case err != nil:
		return nil, err
	case m == nil:
		if err := s.writeManifest(); err != nil {
			return nil, err
		}
	case !cfg.Resume:
		return nil, fmt.Errorf("colstore: open %s: store already exists (crawl %q); pass Resume to continue it", cfg.Dir, m.Name)
	case *m != s.id:
		return nil, fmt.Errorf("colstore: %s holds %v, not %v — point at the original crawl's store or start fresh", s.dir, m, &s.id)
	}
	// A crash can leave a temp file behind mid-seal; it was never
	// renamed, so it holds nothing the store vouched for. Remove it
	// rather than let droppings accumulate.
	if err := s.removeTemps(); err != nil {
		return nil, err
	}
	if err := s.replaySegments(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenRead opens an existing store read-only — including one a live
// crawl is still writing. It replays the segments sealed so far; Rescan
// folds in segments sealed since. Ingest and Seal fail on a read-only
// store.
func OpenRead(dir string) (*Store, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("colstore: open %s: no store manifest", dir)
	}
	s := &Store{dir: dir, id: *m, readonly: true, consumed: map[string]bool{}}
	s.folder = analysis.NewFolder(s.Meta())
	if err := s.replaySegments(); err != nil {
		return nil, err
	}
	return s, nil
}

func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("colstore: corrupt manifest in %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("colstore: %s: unsupported store version %d (this build reads v%d)", dir, m.Version, manifestVersion)
	}
	return &m, nil
}

func (s *Store) writeManifest() error {
	data, err := json.Marshal(&s.id)
	if err != nil {
		return fmt.Errorf("colstore: encode manifest: %w", err)
	}
	return publish(filepath.Join(s.dir, manifestName), append(data, '\n'))
}

// publish atomically writes data at path (WriteAtomic).
func publish(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func (s *Store) removeTemps() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("colstore: scan %s: %w", s.dir, err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return fmt.Errorf("colstore: remove stale temp: %w", err)
			}
		}
	}
	return nil
}

// segmentName formats a sealed segment's file name; lexical order is
// seq order.
func segmentName(seq int) string {
	return fmt.Sprintf("seg-%06d.col", seq)
}

// listSegments returns the sealed segment files in seq order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: scan %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".col") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// replaySegments folds every not-yet-consumed sealed segment. A sealed
// segment that fails validation is a hard error: seals are atomic and
// dir-synced, so a torn or corrupt one means the storage lied, and
// silently skipping it would drop pages the checkpoint vouched for.
func (s *Store) replaySegments() error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	names, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if s.consumed[name] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("colstore: read segment: %w", err)
		}
		seq, recs, err := decodeSegment(data)
		if err == nil && name != segmentName(seq) {
			// A segment is sealed under its own seq; one under another
			// name was moved, and the sequence can no longer be trusted.
			err = fmt.Errorf("colstore: segment header names seq %d", seq)
		}
		if err != nil {
			return &DamagedSegmentError{Name: name, Err: err}
		}
		s.mu.Lock()
		for _, rec := range recs {
			if s.folder.Fold(rec) {
				s.pages++
			} else {
				s.dups++
			}
		}
		if seq >= s.seq {
			s.seq = seq + 1
		}
		s.consumed[name] = true
		s.segments++
		s.mu.Unlock()
	}
	return nil
}

// Ingest folds one page record into the live aggregation and encodes
// it into the next segment's columns. It reports whether the record was
// fresh (false = duplicate of an already-ingested (site, pageURL),
// dropped). The store keeps no part of rec but its strings (the fold
// copies what it keeps), so the caller may reuse the record's maps and
// slices once Ingest returns.
func (s *Store) Ingest(rec *analysis.PageRecord) (bool, error) {
	if s.readonly {
		return false, fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	fresh := s.folder.Fold(rec)
	full := false
	s.mu.Lock()
	if fresh {
		s.pages++
		s.pending.add(rec)
		full = s.pending.records >= s.segPages
	} else {
		s.dups++
	}
	s.mu.Unlock()
	if !fresh {
		obs.StoreDuplicates.Inc()
		return false, nil
	}
	obs.StorePages.Inc()
	if full {
		return true, s.seal(s.segPages)
	}
	return true, nil
}

// Seal writes the buffered records into one sealed segment file, after
// any seal already in flight has finished. Call it at group-commit
// boundaries: dispatch.Ledger.Commit seals before it publishes the
// checkpoint, so a checkpoint never marks a job done whose pages are
// not in a durable segment.
func (s *Store) Seal() error {
	if s.readonly {
		return fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	return s.seal(1)
}

// seal first publishes a segment an earlier seal failed to, then seals
// the buffer into the next segment when it holds at least atLeast
// records; Ingest's auto-seal passes SegmentPages, so of several
// ingests that filled the buffer only the first seals.
func (s *Store) seal(atLeast int) error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.retry != nil {
		name, err := s.publishSegment(s.retry)
		if err != nil {
			return err
		}
		s.consumed[name] = true
		s.retry = nil
	}
	s.mu.Lock()
	enc, seq := s.pending, s.seq
	take := enc.records >= atLeast
	if take {
		if s.pending = s.spare; s.pending == nil {
			s.pending = new(segEncoder)
		}
		s.spare = nil
	}
	s.mu.Unlock()
	if !take {
		return nil
	}

	span := obs.StartSpan(obs.StoreSeal)
	// The segment's bytes reuse the last one's buffer, which the publish
	// below is done with once it returns.
	data := enc.appendSegment(enc.out[:0], seq)
	enc.out = data
	name, err := s.publishSegment(data)
	if err != nil {
		// The segment never became durable: keep its bytes (the buffer
		// goes with them) so the next seal publishes them first, under
		// the same seq.
		s.retry, enc.out = data, nil
	} else {
		s.consumed[name] = true
		span.End()
	}
	enc.reset()
	s.spare = enc
	return err
}

// publishSegment publishes data as the segment numbered s.seq, advances
// the sequence, and returns the segment's file name for the caller —
// which holds segMu — to mark consumed.
func (s *Store) publishSegment(data []byte) (string, error) {
	s.mu.Lock()
	name := segmentName(s.seq)
	s.mu.Unlock()
	if err := publish(filepath.Join(s.dir, name), data); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.seq++
	s.segments++
	s.mu.Unlock()
	obs.StoreSeals.Inc()
	obs.StoreSegments.Add(1)
	obs.StoreBytes.Add(int64(len(data)))
	return name, nil
}

// Sealed returns how many segments the store's sequence holds: those
// numbered 0 to Sealed()-1. A checkpoint taken after a Seal vouches for
// that many.
func (s *Store) Sealed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// MissingSegment returns the name of the first of segments 0 to n-1
// that the store has not folded, or "" when it has folded them all: a
// resume's check that every segment its checkpoint vouches for was
// there to replay.
func (s *Store) MissingSegment(n int) string {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	for seq := 0; seq < n; seq++ {
		if name := segmentName(seq); !s.consumed[name] {
			return name
		}
	}
	return ""
}

// Rescan folds any segments sealed since the store was opened (or last
// rescanned) — the read-only live-query path. Writable stores never
// need it: they folded every record at ingest.
func (s *Store) Rescan() error {
	return s.replaySegments()
}

// Dataset snapshots the store-derived dataset: canonical, immutable,
// and — after the same records — byte-identical to any other fold of
// them, a cold OpenRead's included. Callable at any point during the
// crawl.
func (s *Store) Dataset() (*analysis.Dataset, analysis.MergeStats) {
	return s.folder.Snapshot()
}

// Finalize closes out the crawl's aggregation, reporting its merge
// metrics (merge.pages, merge.duplicates, stage.merge). Call once, when
// the crawl is done.
func (s *Store) Finalize() (*analysis.Dataset, analysis.MergeStats) {
	return s.folder.Finalize()
}

// state is one consistent read of the store's fold — dataset,
// observation counts and version together — for the query engine.
func (s *Store) state() analysis.FoldState {
	return s.folder.State()
}

// Meta returns the crawl identity the store was opened with.
func (s *Store) Meta() analysis.DatasetMeta {
	return analysis.DatasetMeta{Name: s.id.Name, Era: s.id.Era, CrawlIndex: s.id.CrawlIndex}
}

// Version increases with every folded record; the query layer uses it
// to cache snapshots.
func (s *Store) Version() uint64 { return s.folder.Version() }

// Stats describes the store's physical and logical state.
type Stats struct {
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	Pages    int    `json:"pages"`
	Dups     int    `json:"duplicates"`
	Pending  int    `json:"pendingRecords"`
	ReadOnly bool   `json:"readOnly"`
}

// Stats reports the store's current state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	if s.pending != nil { // nil on a read-only store
		pending = s.pending.records
	}
	return Stats{
		Dir:      s.dir,
		Segments: s.segments,
		Pages:    s.pages,
		Dups:     s.dups,
		Pending:  pending,
		ReadOnly: s.readonly,
	}
}

// Close seals any buffered records. The store holds no file handles
// between operations, so sealing is all closing means.
func (s *Store) Close() error {
	if s.readonly {
		return nil
	}
	return s.Seal()
}

// ReadSegment decodes one sealed segment file — the low-level tool the
// crash tests use.
func ReadSegment(path string) ([]*analysis.PageRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: read segment: %w", err)
	}
	_, recs, err := decodeSegment(data)
	return recs, err
}

var _ io.Closer = (*Store)(nil)
