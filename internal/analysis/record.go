// Page records: the per-page form of a crawl measurement.
//
// A grant runner emits one PageRecord per crawled page: in-process
// straight to the dispatch ledger (internal/dispatch), or from a fabric
// worker as a page block, the one-record segment image the columnar
// store (internal/colstore) encodes and decodes. The ledger hands the
// record to the crawl's store, which folds it into a Folder and seals it
// into its segments; a resumed store folds the records of its sealed
// segments when it opens. The fold never holds all pages in memory:
// records are aggregated on the fly and only the dataset's own output
// (site summaries, socket records, per-domain HTTP aggregates, label
// counts) is retained.
//
// A PageRecord carries the labeler observation *deltas* its page
// contributed (A&A hits, non-A&A hits, CDN adjacency counts) rather
// than any derived label state, so D′ — the a(d) ≥ 0.1·n(d) rule of
// §3.2 — can be recomputed exactly from the summed deltas when the fold
// is finalized. This is what makes a resumed crawl converge to the same
// Dataset as an uninterrupted one.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/inclusion"
	"repro/internal/labeler"
	"repro/internal/obs"
	"repro/internal/urlutil"
)

// PageRecord is one crawled page: everything the dataset needs from the
// page, plus the labeler deltas it contributed. Its JSON form is the
// spool line of the benchmark harness's spool writers.
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

// Recorder converts live page loads into PageRecords. It reads the
// labeler's rule lists and CDN map but never mutates its counts, so one
// Recorder is safe to share across all crawl workers concurrently.
// RecordPage times its two pipeline stages into the obs registry
// (stage.tree, stage.label); the timings observe the work without
// influencing the records produced.
//
// Ownership: RecordPage works in per-page scratch it recycles across
// calls — the inclusion tree comes from an arena Builder, and chain
// walks, node listings and content items reuse their buffers — but a
// returned PageRecord never aliases that scratch: records outlive the
// page, scratch does not (TestRecorderReuseMatchesFreshRecorders). Nor
// does it alias the page's trace: every string it takes from there —
// the page, socket and chain URLs, and the domains and hosts cut out of
// URLs — is a copy, made once per page, so the fold can keep a record's
// strings without keeping the page bodies they were cut from. Ad
// captions are copies already (content.ExtractAdRefs).
type Recorder struct {
	Label *labeler.Labeler

	// Pooled is read by nothing: every Recorder recycles its scratch.
	// It stays declared only so bench/ compiles until ROADMAP 1(b).
	Pooled bool

	// scratch pools *recordScratch; every RecordPage Get is paired with
	// a deferred Put.
	scratch sync.Pool
}

// recordScratch is the per-page working state RecordPage recycles. The
// inclusion tree it builds is valid only until the next RecordPage that
// reuses this scratch.
type recordScratch struct {
	builder  *inclusion.Builder
	nodes    []*inclusion.Node
	chain    []*inclusion.Node
	items    []string
	recvSeen map[string]bool
	// aa, non and cdn take the labeler's deltas; ownCounts copies them
	// into the record.
	aa, non, cdn map[string]int
	// owned maps each trace string the page's record took to the
	// record's copy of it.
	owned map[string]string
}

// own returns the record's copy of s, making it on first use.
func (sc *recordScratch) own(s string) string {
	if c, ok := sc.owned[s]; ok {
		return c
	}
	c := strings.Clone(s)
	sc.owned[c] = c
	return c
}

// ownCounts is m with every key replaced by the record's copy; nil when
// m is empty.
func (sc *recordScratch) ownCounts(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, n := range m {
		out[sc.own(k)] = n
	}
	return out
}

// NewRecorder builds a recorder over a configured labeler.
func NewRecorder(lab *labeler.Labeler) *Recorder { return &Recorder{Label: lab} }

// RecordPage builds the record of one crawled page.
func (r *Recorder) RecordPage(site crawler.Site, pageURL string, res *browser.PageResult) (*PageRecord, error) {
	sc, ok := r.scratch.Get().(*recordScratch)
	if !ok {
		sc = &recordScratch{
			builder: inclusion.NewBuilder(), recvSeen: map[string]bool{}, owned: map[string]string{},
			aa: map[string]int{}, non: map[string]int{}, cdn: map[string]int{},
		}
	}
	defer r.scratch.Put(sc)
	clear(sc.owned)
	clear(sc.aa)
	clear(sc.non)
	clear(sc.cdn)
	treeSpan := obs.StartSpan(obs.StageTree)
	tree, err := sc.builder.Build(res.Trace)
	if err != nil {
		// Failed builds are not a tree-stage sample; the span is dropped.
		return nil, fmt.Errorf("analysis: build inclusion tree for %s: %w", pageURL, err)
	}
	treeSpan.End()
	labelSpan := obs.StartSpan(obs.StageLabel)
	sc.nodes = r.Label.TagTreeInto(tree, sc.nodes, sc.aa, sc.non, sc.cdn)
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
	rec := &PageRecord{Site: site.Domain, Rank: site.Rank, PageURL: sc.own(pageURL)}
	sc.nodes = tree.AppendKind(sc.nodes[:0], inclusion.KindWebSocket)
	for _, ws := range sc.nodes {
		rec.Sockets = append(rec.Sockets, r.socketRecord(sc, site, rec.PageURL, pageHost, ws))
	}
	rec.HTTP = r.httpObservations(sc, tree, pageHost)
	rec.AAObs = sc.ownCounts(sc.aa)
	rec.NonAAObs = sc.ownCounts(sc.non)
	rec.CDNObs = sc.ownCounts(sc.cdn)
	return rec, nil
}

// DatasetMeta names the crawl a merged dataset belongs to.
type DatasetMeta struct {
	Name       string
	Era        string
	CrawlIndex int
}

// MergeStats reports what a fold consumed.
type MergeStats struct {
	// Pages is the number of distinct pages folded into the dataset.
	Pages int
	// Duplicates counts records skipped because their (site, pageURL)
	// was already folded — re-crawled sites after a resume land here.
	Duplicates int
}

// Folder folds PageRecords into a Dataset incrementally as pages
// arrive, sparing the finalize step a full pass over the crawl's pages.
// Records are deduplicated by (site, pageURL), first occurrence wins,
// so a crawl folded live produces a Dataset byte-identical to a replay
// of its store — the records for a given page are deterministic, and
// finalize imposes the canonical order regardless of arrival order.
// Fold is safe for concurrent use; Finalize must only be called once
// all folds are done.
type Folder struct {
	mu      sync.Mutex
	agg     *shardMerger // guarded by mu
	n       int          // guarded by mu; distinct pages folded
	dup     int          // guarded by mu; duplicates skipped
	version uint64       // guarded by mu; bumped by every Fold
}

// NewFolder starts an empty incremental fold for one dataset.
func NewFolder(meta DatasetMeta) *Folder {
	return &Folder{agg: newShardMerger(meta)}
}

// Fold merges one page record, reporting false for duplicates. The
// record's socket records, and their slices, are retained by reference
// (its maps are copied); callers must not mutate those after folding
// the record.
func (f *Folder) Fold(rec *PageRecord) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.version++
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
	return f.agg.snapshot(), MergeStats{Pages: f.n, Duplicates: f.dup}
}

// FoldState is one consistent read of a fold: a Snapshot, the labeler
// observation deltas its D′ was derived from, and the fold version both
// reflect. The counts are copies, like the snapshot's.
type FoldState struct {
	Dataset *Dataset
	Stats   MergeStats
	Version uint64
	// AAObs, NonAAObs and CDNObs are the per-domain A&A hits, non-A&A
	// hits and opaque-CDN adjacency counts: the inputs of the §3.2
	// threshold rule, which the query service's labels endpoint shows
	// beside the verdict.
	AAObs, NonAAObs, CDNObs map[string]int
}

// State snapshots the fold together with its observation counts and
// version under one lock, so no fold can land between them.
func (f *Folder) State() FoldState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FoldState{
		Dataset: f.agg.snapshot(), Stats: MergeStats{Pages: f.n, Duplicates: f.dup}, Version: f.version,
		AAObs: copyCounts(f.agg.aa), NonAAObs: copyCounts(f.agg.non), CDNObs: copyCounts(f.agg.cdn),
	}
}

// Version counts the Fold calls so far, duplicates included: a reader
// holding a State of the same version holds the fold's current state.
func (f *Folder) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
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

// snapshot is finalize with the per-domain HTTP aggregates copied, so
// the dataset shares no mutable state with later folds.
func (m *shardMerger) snapshot() *Dataset {
	ds := m.finalize()
	http := make(map[string]*DomainTraffic, len(ds.HTTPByDomain))
	for dom, t := range ds.HTTPByDomain {
		cp := *t
		cp.SentItems = copyCounts(t.SentItems)
		cp.RecvClasses = copyCounts(t.RecvClasses)
		http[dom] = &cp
	}
	ds.HTTPByDomain = http
	return ds
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
