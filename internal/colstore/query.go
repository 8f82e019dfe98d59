package colstore

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/analysis"
)

// Engine executes read-side queries over a store. It snapshots the
// store's fold lazily and caches the snapshot by fold version, so any
// number of queries between ingests share one canonical dataset and a
// query mid-crawl is just a fold-version check away from free.
type Engine struct {
	store *Store

	mu      sync.Mutex
	version uint64
	fresh   bool
	snap    *analysis.Dataset
	stats   analysis.MergeStats
	aa      map[string]bool
}

// NewEngine builds a query engine over store.
func NewEngine(store *Store) *Engine { return &Engine{store: store} }

// snapshot returns the cached dataset + A&A set, rebuilding when the
// store has folded records since.
func (e *Engine) snapshot() (*analysis.Dataset, analysis.MergeStats, map[string]bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.store.Version(); !e.fresh || v != e.version {
		ds, stats := e.store.Dataset()
		e.snap, e.stats = ds, stats
		e.aa = ds.AASet()
		e.version = v
		e.fresh = true
	}
	return e.snap, e.stats, e.aa
}

// Dataset returns the engine's current snapshot.
func (e *Engine) Dataset() (*analysis.Dataset, analysis.MergeStats) {
	ds, stats, _ := e.snapshot()
	return ds, stats
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
	ds, _, _ := e.snapshot()
	out := []analysis.SiteSummary{}
	for _, s := range ds.Sites {
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

func (q *ChainsQuery) groupKey(ws *analysis.SocketRecord) []string {
	switch q.GroupBy {
	case "site":
		return []string{ws.Site}
	case "initiator":
		return []string{ws.InitiatorDomain}
	case "receiver":
		return []string{ws.ReceiverDomain}
	case "pair":
		return []string{ws.InitiatorDomain + " -> " + ws.ReceiverDomain}
	case "recvClass":
		return ws.RecvClasses
	}
	return nil
}

// Chains runs q over the snapshot's canonical socket order.
func (e *Engine) Chains(q ChainsQuery) ChainsResult {
	ds, _, aa := e.snapshot()
	res := ChainsResult{}
	groups := map[string]*ChainGroup{}
	for i := range ds.Sockets {
		ws := &ds.Sockets[i]
		if !q.match(ws, aa) {
			continue
		}
		res.Total++
		if q.GroupBy != "" {
			for _, key := range q.groupKey(ws) {
				g := groups[key]
				if g == nil {
					g = &ChainGroup{Key: key}
					groups[key] = g
				}
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
	if q.GroupBy != "" {
		res.Groups = make([]ChainGroup, 0, len(groups))
		for _, g := range groups {
			res.Groups = append(res.Groups, *g)
		}
		sort.Slice(res.Groups, func(i, j int) bool {
			if res.Groups[i].Sockets != res.Groups[j].Sockets {
				return res.Groups[i].Sockets > res.Groups[j].Sockets
			}
			return res.Groups[i].Key < res.Groups[j].Key
		})
	}
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

// Labels lists the observation deltas behind D′, sorted by domain.
func (e *Engine) Labels(q LabelsQuery) []LabelRow {
	_, _, aa := e.snapshot()
	aaObs, nonObs, cdnObs := e.store.ObsCounts()
	domains := map[string]bool{}
	for d := range aaObs {
		domains[d] = true
	}
	for d := range nonObs {
		domains[d] = true
	}
	for d := range cdnObs {
		domains[d] = true
	}
	out := []LabelRow{}
	for d := range domains {
		if q.Domain != "" && d != q.Domain {
			continue
		}
		if q.OnlyAA && !aa[d] {
			continue
		}
		out = append(out, LabelRow{Domain: d, AAObs: aaObs[d], NonAA: nonObs[d], CDNObs: cdnObs[d], AA: aa[d]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Table computes one of the paper's Tables 1–5 from the snapshot
// through analysis.Sections: its rows, JSON-able, and their text. topN
// bounds Tables 2–4 (0 = the report's 15).
func (e *Engine) Table(n, topN int) (any, string, bool) {
	if n < 1 || n > 5 {
		return nil, "", false
	}
	ds, _, _ := e.snapshot()
	rows, text := analysis.Lookup("table", strconv.Itoa(n)).Build(topN, ds)
	return rows, text, true
}
