// Spool records: the durable per-page form of a crawl measurement.
//
// The dispatch orchestrator (internal/dispatch) appends one PageRecord
// per crawled page to sharded JSONL spool files as pages arrive, so a
// crash loses at most the page being written. MergeShards streams the
// shards back and folds them into a Dataset without ever holding all
// pages in memory: per-page records are aggregated on the fly and only
// the dataset's own output (site summaries, socket records, per-domain
// HTTP aggregates, label counts) is retained.
//
// A PageRecord carries the labeler observation *deltas* its page
// contributed (A&A hits, non-A&A hits, CDN adjacency counts) rather
// than any derived label state, so D′ — the a(d) ≥ 0.1·n(d) rule of
// §3.2 — can be recomputed exactly from the summed deltas at merge
// time. This is what makes a resumed crawl converge to the same
// Dataset as an uninterrupted one.
package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/inclusion"
	"repro/internal/labeler"
	"repro/internal/obs"
	"repro/internal/urlutil"
)

// PageRecord is one crawled page in spool form: everything the dataset
// needs from the page, plus the labeler deltas it contributed.
type PageRecord struct {
	Site    string `json:"site"`
	Rank    int    `json:"rank"`
	PageURL string `json:"pageUrl"`
	// Sockets are the page's WebSocket observations in tree order.
	Sockets []SocketRecord `json:"sockets,omitempty"`
	// HTTP aggregates the page's plain HTTP/S traffic per domain.
	HTTP map[string]*DomainTraffic `json:"http,omitempty"`
	// AAObs / NonAAObs are per-domain labeler observation deltas.
	AAObs    map[string]int `json:"aaObs,omitempty"`
	NonAAObs map[string]int `json:"nonAaObs,omitempty"`
	// CDNObs counts opaque-CDN adjacency sightings on this page.
	CDNObs map[string]int `json:"cdnObs,omitempty"`
}

// EncodeSpoolRecord writes rec as one JSONL line. The encoding is
// deterministic (encoding/json sorts map keys), so identical crawls
// produce byte-identical spool lines.
func EncodeSpoolRecord(w io.Writer, rec *PageRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("analysis: encode spool record: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeSpoolLine parses one spool line back into a PageRecord.
func DecodeSpoolLine(line []byte) (*PageRecord, error) {
	var rec PageRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("analysis: decode spool record: %w", err)
	}
	return &rec, nil
}

// Recorder converts live page loads into PageRecords. It reads the
// labeler's rule lists and CDN map but never mutates its counts, so one
// Recorder is safe to share across all crawl workers concurrently.
// RecordPage times its two pipeline stages into the obs registry
// (stage.tree, stage.label); the timings observe the work without
// influencing the records produced.
type Recorder struct {
	Label *labeler.Labeler

	// Pooled enables per-page scratch reuse: inclusion trees come from
	// a pooled arena Builder, and chain walks, node listings, and
	// content-item scratch are recycled across pages. The records
	// produced are identical to the zero-value (seed) path — they never
	// alias pooled memory — as the pipeline differential test proves.
	Pooled bool

	// scratch pools *recordScratch; every RecordPage Get is paired with
	// a deferred Put, and nothing from the scratch escapes into the
	// returned PageRecord.
	scratch sync.Pool
}

// recordScratch is the per-page working state RecordPage recycles when
// the Recorder runs pooled. The inclusion tree it builds is valid only
// until the next RecordPage that reuses this scratch.
type recordScratch struct {
	builder  *inclusion.Builder
	nodes    []*inclusion.Node
	chain    []*inclusion.Node
	items    []string
	recvSeen map[string]bool
}

func (r *Recorder) getScratch() *recordScratch {
	if sc, ok := r.scratch.Get().(*recordScratch); ok {
		return sc
	}
	return &recordScratch{builder: inclusion.NewBuilder(), recvSeen: map[string]bool{}}
}

func (r *Recorder) putScratch(sc *recordScratch) { r.scratch.Put(sc) }

// NewRecorder builds a recorder over a configured labeler.
func NewRecorder(lab *labeler.Labeler) *Recorder { return &Recorder{Label: lab} }

// RecordPage builds the spool record for one crawled page.
func (r *Recorder) RecordPage(site crawler.Site, pageURL string, res *browser.PageResult) (*PageRecord, error) {
	var sc *recordScratch
	if r.Pooled {
		sc = r.getScratch()
		defer r.putScratch(sc)
	}
	treeSpan := obs.StartSpan(obs.StageTree)
	var tree *inclusion.Tree
	var err error
	if sc != nil {
		tree, err = sc.builder.Build(res.Trace)
	} else {
		tree, err = inclusion.Build(res.Trace)
	}
	if err != nil {
		// Failed builds are not a tree-stage sample; the span is dropped.
		return nil, fmt.Errorf("analysis: build inclusion tree for %s: %w", pageURL, err)
	}
	treeSpan.End()
	labelSpan := obs.StartSpan(obs.StageLabel)
	aa, non, cdn := r.Label.TagTree(tree)
	labelSpan.End()

	// The tree's root frame is the page: its host is already parsed,
	// unless the caller names the page by another string.
	pageHost := tree.Root.Host()
	if pageURL != tree.PageURL {
		pageHost = ""
		if u, err := urlutil.Parse(pageURL); err == nil {
			pageHost = u.Host
		}
	}
	rec := &PageRecord{Site: site.Domain, Rank: site.Rank, PageURL: pageURL}
	var sockets []*inclusion.Node
	if sc != nil {
		sc.nodes = tree.AppendKind(sc.nodes[:0], inclusion.KindWebSocket)
		sockets = sc.nodes
	} else {
		sockets = tree.Sockets()
	}
	for _, ws := range sockets {
		rec.Sockets = append(rec.Sockets, r.socketRecord(sc, site, pageURL, pageHost, ws))
	}
	rec.HTTP = r.httpObservations(sc, tree, pageHost)
	if len(aa) > 0 {
		rec.AAObs = aa
	}
	if len(non) > 0 {
		rec.NonAAObs = non
	}
	if len(cdn) > 0 {
		rec.CDNObs = cdn
	}
	return rec, nil
}

// DatasetMeta names the crawl a merged dataset belongs to.
type DatasetMeta struct {
	Name       string
	Era        string
	CrawlIndex int
}

// MergeStats reports what a merge consumed.
type MergeStats struct {
	// Shards is the number of spool files read.
	Shards int
	// Pages is the number of distinct pages folded into the dataset.
	Pages int
	// Duplicates counts spool records skipped because their
	// (site, pageURL) was already merged — re-crawled sites after a
	// resume land here.
	Duplicates int
	// Truncated counts shards ending in an *unterminated* trailing
	// fragment (a crash mid-append); the fragment is ignored. Only a
	// missing final newline qualifies: a newline-terminated line that
	// fails to decode was written complete and is corruption, which
	// fails the merge outright no matter where in the shard it sits.
	Truncated int
}

// MergeOptions tunes a merge beyond MergeShards' defaults.
type MergeOptions struct {
	// MinShardBytes, when non-nil, is parallel to the shard paths: each
	// entry is that shard's durable extent as recorded by a dispatch
	// checkpoint (Checkpoint.ShardBytes). The checkpoint vouches that
	// every byte before the extent is part of a complete, flushed line,
	// so a torn (unterminated) tail starting inside the extent means
	// durable data has gone missing and the merge fails hard instead of
	// skipping it. Tails beginning at or past the extent remain ordinary
	// crash remnants and are tolerated.
	MinShardBytes []int64
}

// MergeShards streams PageRecords out of spool shard files and folds
// them into a Dataset. Records are deduplicated by (site, pageURL),
// first occurrence wins — safe because site crawls are deterministic,
// so a re-crawled page carries an identical record. The output is
// canonically ordered (sites by rank, sockets by site/page/tree
// position) and therefore byte-identical across runs regardless of
// worker scheduling.
//
// MergeShards reads the shards sequentially in a single goroutine;
// callers running merges concurrently must use distinct shard sets.
// Merge throughput is recorded in the obs registry (merge.pages,
// merge.duplicates, stage.merge).
func MergeShards(meta DatasetMeta, paths []string) (*Dataset, MergeStats, error) {
	return MergeShardsOpts(meta, paths, MergeOptions{})
}

// MergeShardsOpts is MergeShards with checkpoint-aware strictness: when
// opts.MinShardBytes records the durable extents a checkpoint vouched
// for, torn tails inside those extents fail the merge instead of being
// skipped as crash remnants.
func MergeShardsOpts(meta DatasetMeta, paths []string, opts MergeOptions) (*Dataset, MergeStats, error) {
	mergeSpan := obs.StartSpan(obs.StageMerge)
	agg := newShardMerger(meta)
	stats := MergeStats{Shards: len(paths)}
	// One read buffer serves every shard: the reader never hands bytes
	// out past the fold of the line they belong to, so sequential shard
	// merges can share it instead of re-allocating 64 KiB per file.
	br := bufio.NewReaderSize(nil, 64*1024)
	for i, path := range paths {
		var min int64
		if i < len(opts.MinShardBytes) {
			min = opts.MinShardBytes[i]
		}
		if err := mergeShardFile(path, br, agg, &stats, min); err != nil {
			return nil, stats, err
		}
	}
	ds := agg.finalize()
	mergeSpan.End()
	obs.MergePages.Add(int64(stats.Pages))
	obs.MergeDuplicates.Add(int64(stats.Duplicates))
	return ds, stats, nil
}

// mergeShardFile streams one shard into the merger, tracking byte
// offsets so trailing fragments can be judged against the durable
// extent a checkpoint recorded (minBytes; 0 when no checkpoint spoke
// for this shard). Only an *unterminated* trailing fragment can be a
// crash torn mid-append, and only when it starts at or past minBytes —
// inside the extent the checkpoint promised complete lines, so a torn
// tail there means durable data went missing. A newline-terminated
// line that fails to decode was written complete; that is corruption
// and fails the merge regardless of position, final line included.
func mergeShardFile(path string, br *bufio.Reader, agg *shardMerger, stats *MergeStats, minBytes int64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("analysis: open shard: %w", err)
	}
	defer f.Close()
	br.Reset(f)
	var off int64
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		start := off
		off += int64(len(raw))
		if err == io.EOF {
			if len(raw) == 0 {
				return nil
			}
			if start < minBytes {
				return fmt.Errorf("analysis: shard %s: torn line at offset %d inside the checkpoint's durable extent (%d bytes) — the spool lost data the checkpoint vouched for", path, start, minBytes)
			}
			stats.Truncated++
			return nil
		}
		if err != nil {
			return fmt.Errorf("analysis: read shard %s: %w", path, err)
		}
		line++
		trimmed := raw[:len(raw)-1]
		if len(trimmed) == 0 {
			continue
		}
		rec, derr := DecodeSpoolLine(trimmed)
		if derr != nil {
			return fmt.Errorf("analysis: shard %s line %d: %w", path, line, derr)
		}
		if agg.fold(rec) {
			stats.Pages++
		} else {
			stats.Duplicates++
		}
	}
}

// Folder folds PageRecords into a Dataset incrementally as pages
// arrive, sparing the finalize step a full decode pass over the spool.
// It applies exactly the same aggregation and (site, pageURL)
// deduplication as MergeShards, so a crawl folded live produces a
// Dataset byte-identical to one merged from its spool shards — the
// records for a given page are deterministic, and finalize imposes the
// canonical order regardless of arrival order. Fold is safe for
// concurrent use; Finalize must only be called once all folds are done.
type Folder struct {
	mu  sync.Mutex
	agg *shardMerger // guarded by mu
	n   int          // guarded by mu; distinct pages folded
	dup int          // guarded by mu; duplicates skipped
}

// NewFolder starts an empty incremental fold for one dataset.
func NewFolder(meta DatasetMeta) *Folder {
	return &Folder{agg: newShardMerger(meta)}
}

// Fold merges one page record, reporting false for duplicates. The
// record's maps and socket slices are retained by reference; callers
// must not mutate a record after folding it.
func (f *Folder) Fold(rec *PageRecord) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.agg.fold(rec) {
		f.n++
		return true
	}
	f.dup++
	return false
}

// Snapshot assembles the canonical Dataset from the records folded so
// far without closing the fold: it records no merge metrics and may be
// called repeatedly, with folds continuing in between. Each call
// re-derives D′ and re-sorts from the accumulated aggregates, so a
// snapshot taken after the last fold is byte-identical to Finalize's
// dataset. The returned dataset shares no mutable state with the fold
// (the per-domain HTTP aggregates are copied), making it safe to serve
// to concurrent readers while the crawl keeps folding — this is what
// backs the columnar store's live query path.
func (f *Folder) Snapshot() (*Dataset, MergeStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ds := f.agg.finalize()
	http := make(map[string]*DomainTraffic, len(ds.HTTPByDomain))
	for dom, t := range ds.HTTPByDomain {
		cp := *t
		cp.SentItems = copyCounts(t.SentItems)
		cp.RecvClasses = copyCounts(t.RecvClasses)
		http[dom] = &cp
	}
	ds.HTTPByDomain = http
	return ds, MergeStats{Pages: f.n, Duplicates: f.dup}
}

// ObsCounts returns copies of the folded labeler observation deltas:
// per-domain A&A hits, non-A&A hits, and opaque-CDN adjacency counts.
// These are the inputs the §3.2 threshold rule derives D′ from; the
// query service's labels endpoint exposes them alongside the derived
// flag.
func (f *Folder) ObsCounts() (aa, non, cdn map[string]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return copyCounts(f.agg.aa), copyCounts(f.agg.non), copyCounts(f.agg.cdn)
}

func copyCounts(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Finalize assembles the canonical Dataset and the fold's merge stats.
// It is the merge stage of a live-folded crawl and reports itself as
// such (stage.merge, merge.pages, merge.duplicates).
func (f *Folder) Finalize() (*Dataset, MergeStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	span := obs.StartSpan(obs.StageMerge)
	ds := f.agg.finalize()
	span.End()
	obs.MergePages.Add(int64(f.n))
	obs.MergeDuplicates.Add(int64(f.dup))
	return ds, MergeStats{Pages: f.n, Duplicates: f.dup}
}

// socketSortKey orders merged socket records canonically: by site rank,
// then site, then page, then position within the page's tree.
type socketSortKey struct {
	rank    int
	site    string
	pageURL string
	index   int
}

func (k socketSortKey) less(o socketSortKey) bool {
	if k.rank != o.rank {
		return k.rank < o.rank
	}
	if k.site != o.site {
		return k.site < o.site
	}
	if k.pageURL != o.pageURL {
		return k.pageURL < o.pageURL
	}
	return k.index < o.index
}

// shardMerger is the streaming aggregation state of a merge.
type shardMerger struct {
	meta       DatasetMeta
	seen       map[string]bool
	sites      map[string]*SiteSummary
	sockets    []SocketRecord
	socketKeys []socketSortKey
	http       map[string]*DomainTraffic
	aa, non    map[string]int
	cdn        map[string]int
}

func newShardMerger(meta DatasetMeta) *shardMerger {
	return &shardMerger{
		meta:  meta,
		seen:  map[string]bool{},
		sites: map[string]*SiteSummary{},
		http:  map[string]*DomainTraffic{},
		aa:    map[string]int{},
		non:   map[string]int{},
		cdn:   map[string]int{},
	}
}

// fold merges one record; it reports false for duplicates.
func (m *shardMerger) fold(rec *PageRecord) bool {
	key := rec.Site + "\x00" + rec.PageURL
	if m.seen[key] {
		return false
	}
	m.seen[key] = true

	s := m.sites[rec.Site]
	if s == nil {
		s = &SiteSummary{Domain: rec.Site, Rank: rec.Rank}
		m.sites[rec.Site] = s
	}
	s.Pages++
	s.Sockets += len(rec.Sockets)
	for i, ws := range rec.Sockets {
		m.sockets = append(m.sockets, ws)
		m.socketKeys = append(m.socketKeys, socketSortKey{rank: rec.Rank, site: rec.Site, pageURL: rec.PageURL, index: i})
	}
	for dom, t := range rec.HTTP {
		dst := m.http[dom]
		if dst == nil {
			dst = &DomainTraffic{Domain: dom, SentItems: map[string]int{}, RecvClasses: map[string]int{}}
			m.http[dom] = dst
		}
		dst.Requests += t.Requests
		dst.ChainsBlocked += t.ChainsBlocked
		for k, v := range t.SentItems {
			dst.SentItems[k] += v
		}
		for k, v := range t.RecvClasses {
			dst.RecvClasses[k] += v
		}
	}
	for d, n := range rec.AAObs {
		m.aa[d] += n
	}
	for d, n := range rec.NonAAObs {
		m.non[d] += n
	}
	for h, n := range rec.CDNObs {
		m.cdn[h] += n
	}
	return true
}

// finalize assembles the canonical Dataset: derives D′ from the summed
// deltas with the labeler's threshold rule and sorts every slice.
func (m *shardMerger) finalize() *Dataset {
	d := &Dataset{
		Name:         m.meta.Name,
		Era:          m.meta.Era,
		CrawlIndex:   m.meta.CrawlIndex,
		HTTPByDomain: m.http,
	}
	for _, s := range m.sites {
		d.Sites = append(d.Sites, *s)
	}
	sort.Slice(d.Sites, func(i, j int) bool {
		if d.Sites[i].Rank != d.Sites[j].Rank {
			return d.Sites[i].Rank < d.Sites[j].Rank
		}
		return d.Sites[i].Domain < d.Sites[j].Domain
	})

	order := make([]int, len(m.sockets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return m.socketKeys[order[a]].less(m.socketKeys[order[b]]) })
	d.Sockets = make([]SocketRecord, 0, len(m.sockets))
	for _, i := range order {
		d.Sockets = append(d.Sockets, m.sockets[i])
	}

	// D′ under the §3.2 threshold, from the merged observation deltas.
	d.AADomains = labeler.Domains(m.aa, m.non, labeler.Threshold)

	// CDN candidates, most frequent first.
	for h := range m.cdn {
		d.CDNCandidates = append(d.CDNCandidates, h)
	}
	sort.Slice(d.CDNCandidates, func(i, j int) bool {
		hi, hj := d.CDNCandidates[i], d.CDNCandidates[j]
		if m.cdn[hi] != m.cdn[hj] {
			return m.cdn[hi] > m.cdn[hj]
		}
		return hi < hj
	})
	return d
}
