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
	"slices"
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
//
// A record is flat: its per-domain aggregates and deltas are lists in
// strictly ascending key order — HTTP by domain, each count list by key
// — which the recorder builds that way and every reader may rely on
// (CheckOrder). A nil list and an empty one are distinct, as the
// segment codec keeps them: the recorder's HTTP list and each entry's
// count lists are never nil, its delta lists are nil when empty.
type PageRecord struct {
	Site    string `json:"site"`
	Rank    int    `json:"rank"`
	PageURL string `json:"pageUrl"`
	// Sockets are the page's WebSocket observations in tree order.
	Sockets []SocketRecord `json:"sockets,omitempty"`
	// HTTP aggregates the page's plain HTTP/S traffic per domain.
	HTTP []PageTraffic `json:"http,omitempty"`
	// AAObs / NonAAObs are per-domain labeler observation deltas.
	AAObs    []Count `json:"aaObs,omitempty"`
	NonAAObs []Count `json:"nonAaObs,omitempty"`
	// CDNObs counts opaque-CDN adjacency sightings on this page.
	CDNObs []Count `json:"cdnObs,omitempty"`
}

// Count is one key's count in a record's count list.
type Count struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// PageTraffic is one page's plain HTTP/S traffic to one 2nd-level
// domain: the page's share of that domain's DomainTraffic.
type PageTraffic struct {
	Domain        string  `json:"domain"`
	Requests      int     `json:"requests"`
	SentItems     []Count `json:"sentItems"`
	RecvClasses   []Count `json:"recvClasses"`
	ChainsBlocked int     `json:"chainsBlocked"`
}

// AppendCounts appends m's entries to dst in ascending key order: the
// count list of m.
func AppendCounts(dst []Count, m map[string]int) []Count {
	start := len(dst)
	for k, n := range m {
		dst = append(dst, Count{Key: k, N: n})
	}
	slices.SortFunc(dst[start:], compareCounts)
	return dst
}

func compareCounts(a, b Count) int { return strings.Compare(a.Key, b.Key) }

// CheckOrder reports the first list of r that is not in strictly
// ascending key order, duplicates included. Readers that take records
// from outside the recorder — the ledger and the segment decoder — check
// it, so the order every reader relies on is never taken on trust.
func (r *PageRecord) CheckOrder() error {
	for i := range r.HTTP {
		t := &r.HTTP[i]
		if i > 0 && r.HTTP[i-1].Domain >= t.Domain {
			return fmt.Errorf("analysis: page record's HTTP entry %q follows %q", t.Domain, r.HTTP[i-1].Domain)
		}
		if err := checkCounts(t.SentItems, "HTTP sent items of ", t.Domain); err != nil {
			return err
		}
		if err := checkCounts(t.RecvClasses, "HTTP recv classes of ", t.Domain); err != nil {
			return err
		}
	}
	if err := checkCounts(r.AAObs, "A&A observations", ""); err != nil {
		return err
	}
	if err := checkCounts(r.NonAAObs, "non-A&A observations", ""); err != nil {
		return err
	}
	return checkCounts(r.CDNObs, "CDN observations", "")
}

func checkCounts(cs []Count, what, of string) error {
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Key >= cs[i].Key {
			return fmt.Errorf("analysis: page record's %s%s: key %q follows %q", what, of, cs[i].Key, cs[i-1].Key)
		}
	}
	return nil
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
	// aa, non and cdn take the labeler's deltas.
	aa, non, cdn map[string]int
	// traffic is httpObservations' tally of the page's HTTP traffic, one
	// entry per domain in first-request order (byDomain indexes it);
	// each entry's count lists are its own scratch, kept across pages.
	traffic  []PageTraffic
	byDomain map[string]int
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

// appendOwnedCounts appends m's count list to dst with every key the
// record's copy, and returns it as its own full slice of dst (nil when
// m is empty) beside the grown dst.
func (sc *recordScratch) appendOwnedCounts(dst []Count, m map[string]int) (list, grown []Count) {
	if len(m) == 0 {
		return nil, dst
	}
	start := len(dst)
	dst = AppendCounts(dst, m)
	for i := start; i < len(dst); i++ {
		dst[i].Key = sc.own(dst[i].Key)
	}
	return dst[start:len(dst):len(dst)], dst
}

// NewRecorder builds a recorder over a configured labeler.
func NewRecorder(lab *labeler.Labeler) *Recorder { return &Recorder{Label: lab} }

// RecordPage builds the record of one crawled page.
func (r *Recorder) RecordPage(site crawler.Site, pageURL string, res *browser.PageResult) (*PageRecord, error) {
	sc, ok := r.scratch.Get().(*recordScratch)
	if !ok {
		sc = &recordScratch{
			builder: inclusion.NewBuilder(), recvSeen: map[string]bool{}, owned: map[string]string{},
			aa: map[string]int{}, non: map[string]int{}, cdn: map[string]int{}, byDomain: map[string]int{},
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
	r.httpObservations(sc, tree, pageHost)
	sc.fill(rec)
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
// (its counts are added into the fold's maps); callers must not mutate those after folding
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
	for i := range rec.HTTP {
		t := &rec.HTTP[i]
		dst := m.http[t.Domain]
		if dst == nil {
			dst = &DomainTraffic{Domain: t.Domain, SentItems: map[string]int{}, RecvClasses: map[string]int{}}
			m.http[t.Domain] = dst
		}
		dst.Requests += t.Requests
		dst.ChainsBlocked += t.ChainsBlocked
		addCounts(dst.SentItems, t.SentItems)
		addCounts(dst.RecvClasses, t.RecvClasses)
	}
	addCounts(m.aa, rec.AAObs)
	addCounts(m.non, rec.NonAAObs)
	addCounts(m.cdn, rec.CDNObs)
	return true
}

// addCounts adds a record's count list into a crawl-level count map.
func addCounts(dst map[string]int, cs []Count) {
	for _, c := range cs {
		dst[c.Key] += c.N
	}
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
