// Package colstore is the embedded append-only columnar dataset store:
// a crawl's fold with its own durable, queryable segments, built for
// crawls too large to re-read at the end.
//
// PageRecords are ingested incrementally as the crawl runs. Each record
// folds straight into the incremental Table 1–5 aggregation (the same
// analysis.Folder fold a store-less ledger keeps, so the derived dataset
// is byte-identical by construction) and is buffered for the next
// segment. At every group-commit boundary — and whenever the buffer
// reaches SegmentPages — the buffered records are sealed into one
// immutable dictionary-encoded segment file: written to a temp file,
// fsynced, renamed into place, and made durable with a parent-directory
// sync (SyncDir documents that contract). A sealed segment is therefore
// all-or-nothing: recovery either sees the complete CRC-verified file
// or no file at all, and anything in between is a hard error, never a
// skip.
//
// Recovery replays sealed segments through the fold in seq order.
// Records deduplicate by (site, pageURL) with first-occurrence wins —
// exactly like the spool replay — so a crawl killed mid-run and resumed
// converges on the same dataset: sites the checkpoint marked done were
// sealed before the checkpoint was written (the dispatch ledger seals
// at the same boundary it flushes the spool), and everything else is
// re-crawled deterministically and deduplicated on re-ingest.
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

// manifestName is the store's identity file, written once at creation.
const manifestName = "store.json"

// manifestVersion is the on-disk store format version.
const manifestVersion = 2

// manifest pins the store's identity so a resume (or a reader) cannot
// mix segments from a different crawl into one dataset.
type manifest struct {
	Version    int    `json:"version"`
	Name       string `json:"name"`
	Era        string `json:"era,omitempty"`
	CrawlIndex int    `json:"crawlIndex"`
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
	meta     analysis.DatasetMeta
	segPages int
	readonly bool

	folder *analysis.Folder

	// sealMu is held by a seal from taking the buffer until the segment
	// is published or the records are put back, so a Seal that returns
	// has seen every seal before it finish.
	sealMu sync.Mutex

	mu       sync.Mutex
	pending  []*analysis.PageRecord // guarded by mu
	seq      int                    // next segment seq; guarded by mu
	segments int                    // sealed segments; guarded by mu
	consumed map[string]bool        // segment files folded; guarded by mu
	pages    int                    // distinct records folded; guarded by mu
	dups     int                    // duplicates dropped; guarded by mu
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
		dir:      cfg.Dir,
		meta:     cfg.Meta,
		segPages: cfg.SegmentPages,
		folder:   analysis.NewFolder(cfg.Meta),
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
	default:
		if err := s.checkManifest(m); err != nil {
			return nil, err
		}
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
	meta := analysis.DatasetMeta{Name: m.Name, Era: m.Era, CrawlIndex: m.CrawlIndex}
	s := &Store{
		dir:      dir,
		meta:     meta,
		readonly: true,
		folder:   analysis.NewFolder(meta),
		consumed: map[string]bool{},
	}
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
	m := manifest{
		Version:    manifestVersion,
		Name:       s.meta.Name,
		Era:        s.meta.Era,
		CrawlIndex: s.meta.CrawlIndex,
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("colstore: encode manifest: %w", err)
	}
	return publish(filepath.Join(s.dir, manifestName), append(data, '\n'))
}

func (s *Store) checkManifest(m *manifest) error {
	if m.Name != s.meta.Name || m.Era != s.meta.Era || m.CrawlIndex != s.meta.CrawlIndex {
		return fmt.Errorf("colstore: %s holds crawl %q era %q index %d, not %q/%q/%d — point at the original crawl's store or start fresh", s.dir, m.Name, m.Era, m.CrawlIndex, s.meta.Name, s.meta.Era, s.meta.CrawlIndex)
	}
	return nil
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
	names, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		s.mu.Lock()
		seen := s.consumed[name]
		s.mu.Unlock()
		if seen {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("colstore: read segment: %w", err)
		}
		seq, recs, err := decodeSegment(data)
		if err != nil {
			return fmt.Errorf("colstore: sealed segment %s is damaged: %w", name, err)
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

// Ingest folds one page record into the live aggregation and buffers it
// for the next segment. It reports whether the record was fresh (false =
// duplicate of an already-ingested (site, pageURL), dropped). The record
// is retained by reference until sealed; callers must not mutate it
// afterwards — the dispatch ingest path hands over the same immutable
// records it spools.
func (s *Store) Ingest(rec *analysis.PageRecord) (bool, error) {
	if s.readonly {
		return false, fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	fresh := s.folder.Fold(rec)
	full := false
	s.mu.Lock()
	if fresh {
		s.pages++
		s.pending = append(s.pending, rec)
		full = len(s.pending) >= s.segPages
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
// boundaries: dispatch.Ledger.Commit seals after the spool flush and
// before the checkpoint is published, so a checkpoint never marks a job
// done whose pages are not in a durable segment.
func (s *Store) Seal() error {
	if s.readonly {
		return fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	return s.seal(1)
}

// seal seals the buffer into the next segment when it holds at least
// atLeast records; Ingest's auto-seal passes SegmentPages, so of several
// ingests that filled the buffer only the first seals.
func (s *Store) seal(atLeast int) error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	recs, seq := s.pending, s.seq
	if len(recs) >= atLeast {
		s.pending = nil
	}
	s.mu.Unlock()
	if len(recs) < atLeast {
		return nil
	}

	span := obs.StartSpan(obs.StoreSeal)
	name := segmentName(seq)
	data := encodeSegment(seq, recs)
	if err := publish(filepath.Join(s.dir, name), data); err != nil {
		// The segment never became durable; put the records back so a
		// later Seal retries them. Prepend keeps ingest order.
		s.mu.Lock()
		s.pending = append(recs, s.pending...)
		s.mu.Unlock()
		return err
	}
	span.End()
	s.mu.Lock()
	s.seq = seq + 1
	s.consumed[name] = true
	s.segments++
	s.mu.Unlock()
	obs.StoreSeals.Inc()
	obs.StoreSegments.Add(1)
	obs.StoreBytes.Add(int64(len(data)))
	return nil
}

// Rescan folds any segments sealed since the store was opened (or last
// rescanned) — the read-only live-query path. Writable stores never
// need it: they folded every record at ingest.
func (s *Store) Rescan() error {
	return s.replaySegments()
}

// Dataset snapshots the store-derived dataset: canonical, immutable,
// and — after the same records — byte-identical to a store-less ledger's
// fold, and to the tests' spool merge (oracle.MergeShards).
// Callable at any point during the crawl.
func (s *Store) Dataset() (*analysis.Dataset, analysis.MergeStats) {
	return s.folder.Snapshot()
}

// Finalize closes out the crawl's aggregation, reporting merge metrics
// exactly like a store-less ledger's fold does (merge.pages,
// merge.duplicates, stage.merge). Call once, when the crawl is done.
func (s *Store) Finalize() (*analysis.Dataset, analysis.MergeStats) {
	return s.folder.Finalize()
}

// state is one consistent read of the store's fold — dataset,
// observation counts and version together — for the query engine.
func (s *Store) state() analysis.FoldState {
	return s.folder.State()
}

// Meta returns the crawl identity the store was opened with.
func (s *Store) Meta() analysis.DatasetMeta { return s.meta }

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
	return Stats{
		Dir:      s.dir,
		Segments: s.segments,
		Pages:    s.pages,
		Dups:     s.dups,
		Pending:  len(s.pending),
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
