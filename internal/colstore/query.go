package colstore

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// Engine executes read-side queries over a store. It snapshots the
// store's fold lazily and caches the snapshot by fold version, so any
// number of queries between ingests share one canonical dataset and a
// query mid-crawl is just a fold-version check away from free. The
// snapshot also carries what is derived from it — Tables 1–5 and the
// label list — each built by the first query that needs it and dropped
// with the snapshot, so a query only filters, cuts and encodes.
type Engine struct {
	store *Store

	mu   sync.Mutex
	snap *snapshot // guarded by mu; nil until the first query
}

// snapshot is one fold version of the store and its derived views. It
// is immutable once built, apart from each view's one-time build, and
// holds at most one row set per table plus one label list, however
// many queries read it.
type snapshot struct {
	analysis.FoldState
	aa     map[string]bool // D′ as a set: analysis.UnionAASet of the one dataset
	tables [5]view[any]
	labels view[[]LabelRow]
}

// view is a value derived from a snapshot, built at most once.
type view[T any] struct {
	once sync.Once
	v    T
}

func (v *view[T]) get(build func() T) T {
	v.once.Do(func() { v.v = build() })
	return v.v
}

// NewEngine builds a query engine over store.
func NewEngine(store *Store) *Engine { return &Engine{store: store} }

// snapshot returns the current snapshot, replacing it when the store
// has folded records since. The dataset, counts and version come from
// one read of the fold, so every view agrees with the version it is
// cached under.
func (e *Engine) snapshot() *snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap == nil || e.store.Version() != e.snap.Version {
		st := e.store.state()
		e.snap = &snapshot{FoldState: st, aa: st.Dataset.AASet()}
	}
	return e.snap
}

// Dataset returns the engine's current snapshot.
func (e *Engine) Dataset() (*analysis.Dataset, analysis.MergeStats) {
	s := e.snapshot()
	return s.Dataset, s.Stats
}

// SitesQuery filters the per-site crawl outcomes.
type SitesQuery struct {
	// Domain restricts to one site (exact match).
	Domain string
	// MinRank/MaxRank bound the site rank (0 = unbounded).
	MinRank int
	MaxRank int
	// WithSockets keeps only sites that opened WebSockets.
	WithSockets bool
}

// Sites runs q; results keep the dataset's canonical rank order.
func (e *Engine) Sites(q SitesQuery) []analysis.SiteSummary {
	out := []analysis.SiteSummary{}
	for _, s := range e.snapshot().Dataset.Sites {
		if q.Domain != "" && s.Domain != q.Domain {
			continue
		}
		if q.MinRank > 0 && s.Rank < q.MinRank {
			continue
		}
		if q.MaxRank > 0 && s.Rank > q.MaxRank {
			continue
		}
		if q.WithSockets && s.Sockets == 0 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// AAFilter selects sockets by where A&A domains sit in their request
// chain, in UnionAASet terms: "initiated" (A&A initiator), "received"
// (A&A receiver), "any" (either), "none" (neither). Empty = no filter.
type AAFilter string

// ChainsQuery filters the observed WebSocket request chains.
type ChainsQuery struct {
	Site          string
	Initiator     string
	Receiver      string
	ChainContains string // domain anywhere along the inclusion chain
	AA            AAFilter
	CrossOrigin   *bool
	Blocked       *bool // §4.2 post-hoc filter-list verdict
	// GroupBy aggregates matches instead of listing them: "site",
	// "initiator", "receiver", "pair" (initiator→receiver), or
	// "recvClass".
	GroupBy string
	// Limit caps listed sockets (0 = all). Ignored when grouping.
	Limit int
}

// ChainGroup is one group-by bucket.
type ChainGroup struct {
	Key     string `json:"key"`
	Sockets int    `json:"sockets"`
	Blocked int    `json:"blocked"`
}

// ChainsResult is a chains query's output: either the matching socket
// records or the group-by buckets.
type ChainsResult struct {
	Total   int                     `json:"total"`
	Sockets []analysis.SocketRecord `json:"sockets,omitempty"`
	Groups  []ChainGroup            `json:"groups,omitempty"`
}

func (q *ChainsQuery) match(ws *analysis.SocketRecord, aa map[string]bool) bool {
	if q.Site != "" && ws.Site != q.Site {
		return false
	}
	if q.Initiator != "" && ws.InitiatorDomain != q.Initiator {
		return false
	}
	if q.Receiver != "" && ws.ReceiverDomain != q.Receiver {
		return false
	}
	if q.ChainContains != "" {
		found := false
		for _, d := range ws.ChainDomains {
			if d == q.ChainContains {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	switch q.AA {
	case "initiated":
		if !aa[ws.InitiatorDomain] {
			return false
		}
	case "received":
		if !aa[ws.ReceiverDomain] {
			return false
		}
	case "any":
		if !aa[ws.InitiatorDomain] && !aa[ws.ReceiverDomain] {
			return false
		}
	case "none":
		if aa[ws.InitiatorDomain] || aa[ws.ReceiverDomain] {
			return false
		}
	}
	if q.CrossOrigin != nil && ws.CrossOrigin != *q.CrossOrigin {
		return false
	}
	if q.Blocked != nil && ws.ChainBlocked != *q.Blocked {
		return false
	}
	return true
}

// groupKey is one chains group's identity: the grouped site, domain or
// class in a, and for "pair" the initiator in a and the receiver in b.
type groupKey struct{ a, b string }

// groupKeys appends ws's group keys to keys.
func (q *ChainsQuery) groupKeys(ws *analysis.SocketRecord, keys []groupKey) []groupKey {
	switch q.GroupBy {
	case "site":
		return append(keys, groupKey{a: ws.Site})
	case "initiator":
		return append(keys, groupKey{a: ws.InitiatorDomain})
	case "receiver":
		return append(keys, groupKey{a: ws.ReceiverDomain})
	case "pair":
		return append(keys, groupKey{ws.InitiatorDomain, ws.ReceiverDomain})
	case "recvClass":
		for _, c := range ws.RecvClasses {
			keys = append(keys, groupKey{a: c})
		}
	}
	return keys
}

// Chains runs q over the snapshot's canonical socket order. A group-by
// counts each match into its group's slot, found through a map keyed by
// groupKey, and names each group once, after the scan.
func (e *Engine) Chains(q ChainsQuery) ChainsResult {
	snap := e.snapshot()
	res := ChainsResult{}
	slots := map[groupKey]int{}
	var keys, scan []groupKey // keys[i] is res.Groups[i]'s
	for i := range snap.Dataset.Sockets {
		ws := &snap.Dataset.Sockets[i]
		if !q.match(ws, snap.aa) {
			continue
		}
		res.Total++
		if q.GroupBy != "" {
			scan = q.groupKeys(ws, scan[:0])
			for _, k := range scan {
				slot, ok := slots[k]
				if !ok {
					slot = len(keys)
					slots[k] = slot
					keys = append(keys, k)
					res.Groups = append(res.Groups, ChainGroup{})
				}
				g := &res.Groups[slot]
				g.Sockets++
				if ws.ChainBlocked {
					g.Blocked++
				}
			}
			continue
		}
		if q.Limit <= 0 || len(res.Sockets) < q.Limit {
			res.Sockets = append(res.Sockets, *ws)
		}
	}
	for i, k := range keys {
		res.Groups[i].Key = k.a
		if q.GroupBy == "pair" {
			res.Groups[i].Key = k.a + " -> " + k.b
		}
	}
	slices.SortFunc(res.Groups, func(x, y ChainGroup) int {
		if c := cmp.Compare(y.Sockets, x.Sockets); c != 0 {
			return c
		}
		return strings.Compare(x.Key, y.Key)
	})
	return res
}

// LabelRow is one domain's labeler evidence and verdict.
type LabelRow struct {
	Domain string `json:"domain"`
	AAObs  int    `json:"aaObs"`
	NonAA  int    `json:"nonAaObs"`
	CDNObs int    `json:"cdnObs,omitempty"`
	// AA reports the §3.2 threshold verdict: this domain is in D′.
	AA bool `json:"aa"`
}

// LabelsQuery filters the label evidence table.
type LabelsQuery struct {
	Domain string // exact match
	OnlyAA bool   // only domains in D′
}

// Labels lists the observation deltas behind D′, sorted by domain. An
// unfiltered query returns the snapshot's shared label view, which
// callers must not modify.
func (e *Engine) Labels(q LabelsQuery) []LabelRow {
	snap := e.snapshot()
	rows := snap.labels.get(snap.labelRows)
	if q.Domain == "" && !q.OnlyAA {
		return rows
	}
	out := []LabelRow{}
	for _, r := range rows {
		if (q.Domain == "" || r.Domain == q.Domain) && (!q.OnlyAA || r.AA) {
			out = append(out, r)
		}
	}
	return out
}

// labelRows builds the label view: every domain with an observation,
// its counts and its verdict, sorted by domain.
func (s *snapshot) labelRows() []LabelRow {
	domains := map[string]bool{}
	for _, counts := range []map[string]int{s.AAObs, s.NonAAObs, s.CDNObs} {
		for d := range counts {
			domains[d] = true
		}
	}
	out := make([]LabelRow, 0, len(domains))
	for d := range domains {
		out = append(out, LabelRow{Domain: d, AAObs: s.AAObs[d], NonAA: s.NonAAObs[d], CDNObs: s.CDNObs[d], AA: s.aa[d]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Table returns the section of one of the paper's Tables 1–5 and its
// rows over the snapshot, every ranked row included. The rows are
// computed by the first call on a snapshot and shared by every later
// one, so callers only read them: sec.Cut bounds them to a request's
// top and sec.Text renders them, exactly as the report does.
func (e *Engine) Table(n int) (sec *analysis.Section, rows any, ok bool) {
	if n < 1 || n > 5 {
		return nil, nil, false
	}
	sec = analysis.Lookup("table", strconv.Itoa(n))
	snap := e.snapshot()
	rows = snap.tables[n-1].get(func() any { return sec.Rows(snap.aa, snap.Dataset) })
	return sec, rows, true
}
