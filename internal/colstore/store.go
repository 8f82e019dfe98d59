// Package colstore is the embedded append-only columnar dataset store:
// the streaming replacement for the post-hoc JSONL-spool → MergeShards
// → one-big-JSON pipeline, built for crawls too large to re-read at the
// end.
//
// PageRecords are ingested incrementally as the crawl runs. Each record
// folds straight into the incremental Table 1–5 aggregation (the same
// analysis.Folder fold the merge path uses, so the derived dataset is
// byte-identical by construction) and is buffered on its site's shard.
// At every group-commit boundary — and whenever a shard's buffer
// reaches SegmentPages — the shard's buffered records are sealed into
// an immutable dictionary-encoded segment file: written to a temp file,
// fsynced, renamed into place, and made durable with a parent-directory
// sync (SyncDir documents that contract). A sealed segment is therefore
// all-or-nothing: recovery either sees the complete CRC-verified file
// or no file at all, and anything in between is a hard error, never a
// skip.
//
// Recovery replays sealed segments through the fold in (shard, seq)
// order. Records deduplicate by (site, pageURL) with first-occurrence
// wins — exactly like the spool merge — so a crawl killed mid-run and
// resumed converges on the same dataset: sites the checkpoint marked
// done were sealed before the checkpoint was written (the dispatch
// ledger seals at the same boundary it flushes the spool), and
// everything else is
// re-crawled deterministically and deduplicated on re-ingest.
//
// The read side (query.go, http.go) serves filter/group-by queries over
// snapshots of the fold; OpenRead opens a store read-only — of a live
// crawl included — and Rescan picks up newly sealed segments.
package colstore

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
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
const manifestVersion = 1

// manifest pins the store's identity so a resume (or a reader) cannot
// mix segments from a different crawl into one dataset.
type manifest struct {
	Version    int    `json:"version"`
	Name       string `json:"name"`
	Era        string `json:"era,omitempty"`
	CrawlIndex int    `json:"crawlIndex"`
	NumShards  int    `json:"numShards"`
}

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory (created if missing).
	Dir string
	// NumShards is the shard count; use the spool's shard count so
	// store segments and spool shards partition the site space the same
	// way.
	NumShards int
	// Meta names the crawl; it becomes the dataset identity.
	Meta analysis.DatasetMeta
	// Resume accepts an existing store directory and replays its sealed
	// segments. Without Resume the directory must be empty of store
	// state.
	Resume bool
	// SegmentPages caps a shard's buffered records before an automatic
	// seal (default 512). Explicit Seal calls flush smaller segments at
	// group-commit boundaries.
	SegmentPages int
}

// Store is the embedded columnar store. All methods are safe for
// concurrent use; Ingest runs on crawl worker goroutines.
type Store struct {
	dir      string
	shards   int
	meta     analysis.DatasetMeta
	segPages int
	readonly bool

	folder *analysis.Folder

	mu       sync.Mutex
	pending  [][]*analysis.PageRecord // per shard; guarded by mu
	seq      []int                    // per shard, next segment seq; guarded by mu
	segments int                      // sealed segments; guarded by mu
	consumed map[string]bool          // segment files folded; guarded by mu
	version  uint64                   // bumped per fold; guarded by mu
	pages    int                      // distinct records folded; guarded by mu
	dups     int                      // duplicates dropped; guarded by mu
}

// Open creates or resumes a writable store.
func Open(cfg Config) (*Store, error) {
	if cfg.NumShards <= 0 {
		cfg.NumShards = 1
	}
	if cfg.SegmentPages <= 0 {
		cfg.SegmentPages = 512
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: open: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		shards:   cfg.NumShards,
		meta:     cfg.Meta,
		segPages: cfg.SegmentPages,
		folder:   analysis.NewFolder(cfg.Meta),
		pending:  make([][]*analysis.PageRecord, cfg.NumShards),
		seq:      make([]int, cfg.NumShards),
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
		shards:   m.NumShards,
		meta:     meta,
		readonly: true,
		folder:   analysis.NewFolder(meta),
		pending:  make([][]*analysis.PageRecord, m.NumShards),
		seq:      make([]int, m.NumShards),
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
		NumShards:  s.shards,
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("colstore: encode manifest: %w", err)
	}
	return s.publish(filepath.Join(s.dir, manifestName), append(data, '\n'))
}

func (s *Store) checkManifest(m *manifest) error {
	switch {
	case m.Name != s.meta.Name || m.Era != s.meta.Era || m.CrawlIndex != s.meta.CrawlIndex:
		return fmt.Errorf("colstore: %s holds crawl %q era %q index %d, not %q/%q/%d — point at the original crawl's store or start fresh", s.dir, m.Name, m.Era, m.CrawlIndex, s.meta.Name, s.meta.Era, s.meta.CrawlIndex)
	case m.NumShards != s.shards:
		return fmt.Errorf("colstore: %s has %d shards, configured %d", s.dir, m.NumShards, s.shards)
	}
	return nil
}

// publish atomically writes data at path under the rename-durability
// contract: temp file, fsync, rename, parent-dir sync.
func (s *Store) publish(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("colstore: publish %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("colstore: publish %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("colstore: publish %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("colstore: publish %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("colstore: publish %s: rename: %w", path, err)
	}
	return SyncDir(s.dir)
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
// (shard, seq) order.
func segmentName(shard, seq int) string {
	return fmt.Sprintf("seg-%03d-%06d.col", shard, seq)
}

// listSegments returns the sealed segment files in (shard, seq) order.
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
		shard, seq, recs, err := decodeSegment(data)
		if err != nil {
			return fmt.Errorf("colstore: sealed segment %s is damaged: %w", name, err)
		}
		if shard < 0 || shard >= s.shards {
			return fmt.Errorf("colstore: segment %s claims shard %d of %d", name, shard, s.shards)
		}
		s.mu.Lock()
		for _, rec := range recs {
			if s.folder.Fold(rec) {
				s.pages++
			} else {
				s.dups++
			}
			s.version++
		}
		if seq >= s.seq[shard] {
			s.seq[shard] = seq + 1
		}
		s.consumed[name] = true
		s.segments++
		s.mu.Unlock()
	}
	return nil
}

// ShardFor maps a site domain to its shard, with the same hash the
// spool uses so the two partitions agree.
func (s *Store) ShardFor(domain string) int {
	h := fnv.New64a()
	h.Write([]byte(domain))
	return int(h.Sum64() % uint64(s.shards))
}

// Ingest folds one page record into the live aggregation and buffers it
// for its shard's next segment. It reports whether the record was fresh
// (false = duplicate of an already-ingested (site, pageURL), dropped).
// The record is retained by reference until sealed; callers must not
// mutate it afterwards — the dispatch ingest path hands over the same
// immutable records it spools.
func (s *Store) Ingest(rec *analysis.PageRecord) (bool, error) {
	if s.readonly {
		return false, fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	fresh := s.folder.Fold(rec)
	shard, full := -1, false
	s.mu.Lock()
	s.version++
	if fresh {
		s.pages++
		shard = s.ShardFor(rec.Site)
		s.pending[shard] = append(s.pending[shard], rec)
		full = len(s.pending[shard]) >= s.segPages
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
		return true, s.sealShard(shard)
	}
	return true, nil
}

// Seal writes every shard's buffered records into sealed segment files.
// Call it at group-commit boundaries: dispatch.Ledger.Commit seals after
// the spool flush and before the checkpoint is published, so a
// checkpoint never marks a job done whose pages are not in a durable
// segment.
func (s *Store) Seal() error {
	if s.readonly {
		return fmt.Errorf("colstore: store %s is read-only", s.dir)
	}
	for shard := 0; shard < s.shards; shard++ {
		if err := s.sealShard(shard); err != nil {
			return err
		}
	}
	return nil
}

// sealShard seals one shard's buffer (no-op when empty).
func (s *Store) sealShard(shard int) error {
	s.mu.Lock()
	recs := s.pending[shard]
	seq := s.seq[shard]
	if len(recs) > 0 {
		s.seq[shard] = seq + 1
		s.pending[shard] = nil
	}
	s.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}

	span := obs.StartSpan(obs.StoreSeal)
	name := segmentName(shard, seq)
	data := encodeSegment(shard, seq, recs)
	if err := s.publish(filepath.Join(s.dir, name), data); err != nil {
		// The segment never became durable; put the records back so a
		// later Seal retries them. Prepend keeps intra-shard order.
		s.mu.Lock()
		s.pending[shard] = append(recs, s.pending[shard]...)
		s.seq[shard] = seq
		s.mu.Unlock()
		return err
	}
	span.End()
	s.mu.Lock()
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
// and — after the same records — byte-identical to MergeShards' output.
// Callable at any point during the crawl.
func (s *Store) Dataset() (*analysis.Dataset, analysis.MergeStats) {
	ds, stats := s.folder.Snapshot()
	stats.Shards = s.shards
	return ds, stats
}

// Finalize closes out the crawl's aggregation, reporting merge metrics
// exactly like a spool merge would (merge.pages, merge.duplicates,
// stage.merge). Call once, when the crawl is done.
func (s *Store) Finalize() (*analysis.Dataset, analysis.MergeStats) {
	ds, stats := s.folder.Finalize()
	stats.Shards = s.shards
	return ds, stats
}

// ObsCounts exposes the folded labeler observation deltas for the query
// service's labels endpoint.
func (s *Store) ObsCounts() (aa, non, cdn map[string]int) {
	return s.folder.ObsCounts()
}

// Meta returns the crawl identity the store was opened with.
func (s *Store) Meta() analysis.DatasetMeta { return s.meta }

// Version increases with every folded record; the query layer uses it
// to cache snapshots.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Stats describes the store's physical and logical state.
type Stats struct {
	Dir       string `json:"dir"`
	NumShards int    `json:"numShards"`
	Segments  int    `json:"segments"`
	Pages     int    `json:"pages"`
	Dups      int    `json:"duplicates"`
	Pending   int    `json:"pendingRecords"`
	ReadOnly  bool   `json:"readOnly"`
}

// Stats reports the store's current state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	for _, p := range s.pending {
		pending += len(p)
	}
	return Stats{
		Dir:       s.dir,
		NumShards: s.shards,
		Segments:  s.segments,
		Pages:     s.pages,
		Dups:      s.dups,
		Pending:   pending,
		ReadOnly:  s.readonly,
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
// crash tests and wsanalyze-style tooling use.
func ReadSegment(path string) ([]*analysis.PageRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: read segment: %w", err)
	}
	_, _, recs, err := decodeSegment(data)
	return recs, err
}

var _ io.Closer = (*Store)(nil)
