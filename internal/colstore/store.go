// Package colstore is the embedded append-only columnar dataset store:
// a crawl's one durable state — its pages, the outcome of every
// settled attempt, its fold — and the query service over it.
//
// PageRecords are ingested incrementally as the crawl runs. Each record
// folds straight into the incremental Table 1–5 aggregation (an
// analysis.Folder) and is encoded into the columns of the next segment,
// so the store keeps no record once Ingest returns; a settled attempt
// appends its outcome row (AppendOutcomes) after its site's pages. At
// every group-commit boundary — and whenever the buffer reaches
// SegmentPages — the buffered columns are sealed into one immutable
// dictionary-encoded segment file: written to a temp file, fsynced,
// renamed into place, and made durable with a parent-directory sync
// (SyncDir documents that contract). A sealed segment is therefore
// all-or-nothing: recovery either sees the complete CRC-verified file or
// no file at all, and anything in between is a hard error, never a skip.
//
// Recovery replays sealed segments through the fold in seq order and
// hands their outcome rows to the writer (TakeOutcomes), which rebuilds
// its queue from them. Records deduplicate by (site, pageURL) with
// first-occurrence wins, so a crawl killed mid-run and resumed converges
// on the same dataset: a site's outcome row was appended after its
// pages, so a sealed prefix that holds the row holds the pages, and
// everything else is re-crawled deterministically and deduplicated on
// re-ingest. Segments are published in seq order, so a gap below the
// highest seq is damage and is refused. store.json pins the crawl's
// identity, so a resume never folds another crawl's segments.
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

// ManifestError is a store.json a resume cannot continue: undecodable,
// of another format version, or naming another crawl (Foreign).
type ManifestError struct {
	Dir     string
	Version int  // the manifest's format version; 0 when undecodable
	Foreign bool // the manifest names another crawl
	Reason  string
}

func (e *ManifestError) Error() string { return fmt.Sprintf("colstore: %s: %s", e.Dir, e.Reason) }

// manifestName is the store's identity file, written once at creation.
const manifestName = "store.json"

// ManifestVersion is the on-disk store format version. Version 3 pinned
// the seed, page budget and site count beside the dataset identity;
// version 4 stores hold outcome rows (segment format v3), so a resume
// needs no other file.
const ManifestVersion = 4

// manifest pins the store's identity so a resume (or a reader) cannot
// mix segments from a different crawl into one dataset. The fault
// fields are omitted when empty, so a fault-free store's manifest is
// what it was before they existed.
type manifest struct {
	Version      int    `json:"version"`
	Name         string `json:"name"`
	Era          string `json:"era,omitempty"`
	CrawlIndex   int    `json:"crawlIndex"`
	Seed         int64  `json:"seed"`
	PagesPerSite int    `json:"pagesPerSite"`
	TotalSites   int    `json:"totalSites"`
	FaultProfile string `json:"faultProfile,omitempty"`
	FaultSeed    int64  `json:"faultSeed,omitempty"`
}

func (m *manifest) String() string {
	s := fmt.Sprintf("crawl %q (era %q, index %d, seed %d, %d pages × %d sites",
		m.Name, m.Era, m.CrawlIndex, m.Seed, m.PagesPerSite, m.TotalSites)
	if m.FaultProfile != "" || m.FaultSeed != 0 {
		s += fmt.Sprintf(", fault profile %q, fault seed %d", m.FaultProfile, m.FaultSeed)
	}
	return s + ")"
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
	// FaultProfile and FaultSeed name the faults the crawl's pages were
	// loaded under (empty and zero for a fault-free crawl). They are part
	// of its identity: a resume under another profile or seed would fold
	// two experiments into one dataset.
	FaultProfile string
	FaultSeed    int64
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
	replayed []Outcome       // the outcome rows Open replayed, until taken; guarded by mu
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
			Version: ManifestVersion,
			Name:    cfg.Meta.Name, Era: cfg.Meta.Era, CrawlIndex: cfg.Meta.CrawlIndex,
			Seed: cfg.Seed, PagesPerSite: cfg.PagesPerSite, TotalSites: cfg.TotalSites,
			FaultProfile: cfg.FaultProfile, FaultSeed: cfg.FaultSeed,
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
		return nil, &ManifestError{Dir: s.dir, Version: m.Version, Foreign: true,
			Reason: fmt.Sprintf("holds %v, not %v — point at the original crawl's store or start fresh", m, &s.id)}
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
		return nil, &ManifestError{Dir: dir, Reason: fmt.Sprintf("corrupt manifest: %v", err)}
	}
	if m.Version != ManifestVersion {
		return nil, &ManifestError{Dir: dir, Version: m.Version,
			Reason: fmt.Sprintf("unsupported store version %d (this build reads v%d)", m.Version, ManifestVersion)}
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

// replaySegments folds every not-yet-consumed sealed segment, keeping a
// writable store's outcome rows for TakeOutcomes. A sealed segment that
// fails validation is a hard error, and so is a gap in the sequence
// below its highest seq: seals are atomic, dir-synced and published in
// seq order, so either means the storage lied, and silently skipping it
// would drop pages whose sites an outcome row marks done. A missing
// last segment is no gap: it is what a crash before that seal leaves.
func (s *Store) replaySegments() error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	names, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		if want := segmentName(i); name != want {
			return &DamagedSegmentError{Name: want, Err: fmt.Errorf("the file is missing, and %s follows it", name)}
		}
	}
	for _, name := range names {
		if s.consumed[name] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("colstore: read segment: %w", err)
		}
		seq, recs, rows, err := decodeSegment(data)
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
		if !s.readonly {
			s.replayed = append(s.replayed, rows...)
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
// dropped). The store keeps rec's strings and its socket records'
// slices (the fold copies the rest of what it keeps), so rec must own
// its strings and the caller may reuse only the record's maps once
// Ingest returns.
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
		_, err := s.seal(true)
		return true, err
	}
	return true, nil
}

// AppendOutcomes buffers outcome rows for the next segment. Append a
// site's row after its pages were ingested: any segment prefix that then
// holds the row holds the pages too.
func (s *Store) AppendOutcomes(rows ...Outcome) error {
	if s.readonly {
		return fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	s.mu.Lock()
	for _, o := range rows {
		s.pending.addOutcome(o)
	}
	s.mu.Unlock()
	return nil
}

// TakeOutcomes returns the outcome rows Open replayed, in seal order,
// and drops the store's reference to them. A read-only store keeps none.
func (s *Store) TakeOutcomes() []Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.replayed
	s.replayed = nil
	return rows
}

// Seal writes the buffered records and outcome rows into one sealed
// segment file, after any seal already in flight has finished; with
// nothing buffered it writes nothing.
func (s *Store) Seal() error {
	_, err := s.SealPending()
	return err
}

// SealPending is Seal, and reports whether it found anything to seal.
func (s *Store) SealPending() (sealed bool, err error) {
	if s.readonly {
		return false, fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	return s.seal(false)
}

// seal first publishes a segment an earlier seal failed to, then seals
// the buffer into the next segment: an explicit seal when it holds
// anything, Ingest's auto-seal when it holds SegmentPages records, so
// of several ingests that filled the buffer only the first seals. It
// reports whether it took the buffer.
func (s *Store) seal(auto bool) (bool, error) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.retry != nil {
		name, err := s.publishSegment(s.retry)
		if err != nil {
			return false, err
		}
		s.consumed[name] = true
		s.retry = nil
	}
	s.mu.Lock()
	enc, seq := s.pending, s.seq
	take := enc.records >= s.segPages || !auto && enc.records+enc.outcomes > 0
	if take {
		if s.pending = s.spare; s.pending == nil {
			s.pending = new(segEncoder)
		}
		s.spare = nil
	}
	s.mu.Unlock()
	if !take {
		return false, nil
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
	return true, err
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

// ReadSegment decodes one sealed segment file's records and outcome
// rows — the low-level tool the crash tests use.
//
//lint:allow unusedapi test oracle: the crash and ledger tests of colstore, dispatch, fabric and core read sealed segments through it
func ReadSegment(path string) ([]*analysis.PageRecord, []Outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("colstore: read segment: %w", err)
	}
	_, recs, rows, err := decodeSegment(data)
	return recs, rows, err
}

var _ io.Closer = (*Store)(nil)
