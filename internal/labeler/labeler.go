// Package labeler derives the A&A (advertising & analytics) domain set
// D′ the way §3.2 of the paper does: every observed resource is tagged
// A&A or non-A&A by matching it against EasyList and EasyPrivacy, tag
// counts are aggregated per 2nd-level domain, and a domain enters D′
// when a(d) ≥ 0.1 · n(d) — the 10% threshold that filters false
// positives.
//
// It also implements the paper's Cloudfront handling: opaque CDN hosts
// that serve A&A scripts are detected by chain adjacency and mapped to
// their owning company through a manual table.
//
// Concurrency: the labeler sits on the per-page hot path of every crawl
// worker and holds no observation state, so it takes no lock there: the
// CDN map is an immutable copy-on-write snapshot read without locking.
// TagTree returns a page's a(d)/n(d) deltas; whoever owns the crawl's
// records sums them (internal/analysis) and derives D′ with Domains.
package labeler

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/inclusion"
	"repro/internal/urlutil"
)

// Labeler tags resources A&A or non-A&A against the rule lists.
type Labeler struct {
	group *filterlist.Group

	// cdnMap is an immutable snapshot, replaced wholesale by SetCDNMap
	// (copy-on-write) and read lock-free on every MapDomain call.
	cdnMap atomic.Pointer[map[string]string]
	cdnMu  sync.Mutex // serializes SetCDNMap writers
}

// New builds a labeler over the given rule lists (the paper uses
// EasyList and EasyPrivacy).
func New(lists ...*filterlist.List) *Labeler {
	return &Labeler{group: filterlist.NewGroup(lists...)}
}

// SetCDNMap installs the manual CDN-host-to-company mapping (the 13
// Cloudfront domains of §3.2). The update is copy-on-write: readers
// keep seeing the previous immutable snapshot until the merged one is
// published atomically.
func (l *Labeler) SetCDNMap(m map[string]string) {
	l.cdnMu.Lock()
	defer l.cdnMu.Unlock()
	old := l.cdnMap.Load()
	merged := make(map[string]string, len(m))
	if old != nil {
		for k, v := range *old {
			merged[k] = v
		}
	}
	for k, v := range m {
		merged[strings.ToLower(k)] = v
	}
	l.cdnMap.Store(&merged)
}

// MapDomain resolves a host to the 2nd-level domain used for counting,
// applying the CDN mapping first. Lock-free: the CDN snapshot is
// immutable and the registrable-domain extraction is pure.
func (l *Labeler) MapDomain(host string) string {
	if mapped, ok := l.cdnOwner(strings.ToLower(host)); ok {
		return mapped
	}
	return urlutil.RegistrableDomain(host)
}

// NodeDomain is MapDomain of a tree node's host, taking the registrable
// domain from the node's memo instead of deriving it again on every
// ask (a parsed URL's host is already lower-case). A nil node — a
// socket's missing parent — maps to "".
func (l *Labeler) NodeDomain(n *inclusion.Node) string {
	if n == nil {
		return ""
	}
	if mapped, ok := l.cdnOwner(n.Host()); ok {
		return mapped
	}
	return n.Domain()
}

// cdnOwner looks a lower-case host up in the manual CDN mapping.
func (l *Labeler) cdnOwner(host string) (string, bool) {
	m := l.cdnMap.Load()
	if m == nil {
		return "", false
	}
	mapped, ok := (*m)[host]
	return mapped, ok
}

// opaqueCDNSuffixes are shared-CDN suffixes whose subdomains carry no
// company identity of their own.
var opaqueCDNSuffixes = []string{".cloudfront.net"}

// isOpaqueCDNHost reports whether the host is an anonymous shared-CDN
// host needing manual mapping.
func isOpaqueCDNHost(host string) bool {
	for _, suf := range opaqueCDNSuffixes {
		if strings.HasSuffix(host, suf) && host != suf[1:] {
			return true
		}
	}
	return false
}

// TagTree tags every request in a page's inclusion tree and returns the
// per-domain observation deltas: A&A hits, non-A&A hits, and opaque-CDN
// adjacency candidates. The deltas ride in the page's record and are
// summed when the dataset is assembled (internal/analysis), which is
// what lets a crawl checkpoint, resume and merge.
//
// Each request's verdict stays on its node (inclusion.Node.Verdict), so
// the chain questions asked of the same tree afterwards do not match
// anything twice. A tree therefore belongs to the one labeler that
// tags it.
func (l *Labeler) TagTree(t *inclusion.Tree) (aa, non, cdn map[string]int) {
	aa, non, cdn = map[string]int{}, map[string]int{}, map[string]int{}
	pageHost := t.Root.Host() // the page is the root frame's document
	var prevDomainAA bool
	var prevHost string
	for _, req := range t.Requests() {
		u := req.ParsedURL()
		if u == nil {
			continue
		}
		blocked := l.blocked(req, u, req.Type, pageHost)
		if dom := l.NodeDomain(req); dom != "" {
			if blocked {
				aa[dom]++
			} else {
				non[dom]++
			}
		}

		// Cloudfront adjacency: an opaque CDN host immediately before
		// or after an A&A resource in load order is a candidate for
		// manual mapping.
		host := u.Host
		if isOpaqueCDNHost(host) && prevDomainAA {
			cdn[host]++
		}
		if isOpaqueCDNHost(prevHost) && blocked {
			cdn[prevHost]++
		}
		prevDomainAA = blocked
		prevHost = host
	}
	return aa, non, cdn
}

// blocked reports whether the lists block node n — its URL u, asked as
// resource type typ on a page of pageHost. All three are fixed for the
// node's life, so the first answer is kept on the node and later asks
// (a script is an ancestor of many requests) read it back.
func (l *Labeler) blocked(n *inclusion.Node, u *urlutil.URL, typ devtools.ResourceType, pageHost string) bool {
	if blocked, ok := n.Verdict(pageHost); ok {
		return blocked
	}
	blocked := l.group.Match(filterlist.Request{URL: u, Type: typ, PageHost: pageHost}).Blocked
	n.SetVerdict(pageHost, blocked)
	return blocked
}

// Threshold is the a(d) ≥ Threshold · n(d) cutoff from §3.2.
const Threshold = 0.1

// Domains derives D′ from summed observation deltas (as produced by
// TagTree): every domain with at least one A&A observation and
// a(d) ≥ threshold · n(d), sorted. Threshold is the paper's value; the
// ablation benchmark sweeps others.
func Domains(aa, non map[string]int, threshold float64) []string {
	var out []string
	for d, a := range aa {
		if a > 0 && float64(a) >= threshold*float64(non[d]) {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// MatchChain reports whether any resource along the chain (script URLs
// and the final node) would have been blocked by the lists — the
// post-hoc analysis of §4.2 (footnote 2 caveats apply there too).
func (l *Labeler) MatchChain(chain []*inclusion.Node, pageHost string) bool {
	for _, n := range chain {
		if n.Kind != inclusion.KindScript && n.Kind != inclusion.KindRequest && n.Kind != inclusion.KindWebSocket {
			continue
		}
		u := n.ParsedURL()
		if u == nil {
			continue
		}
		typ := n.Type
		if n.Kind == inclusion.KindScript {
			typ = devtools.ResourceScript
		}
		if l.blocked(n, u, typ, pageHost) {
			return true
		}
	}
	return false
}

// MatchURLs is MatchChain over bare URL strings with the given types,
// used when only compact records survive (dataset replay).
func (l *Labeler) MatchURLs(urls []string, types []devtools.ResourceType, pageHost string) bool {
	for i, raw := range urls {
		u, err := urlutil.Parse(raw)
		if err != nil {
			continue
		}
		typ := devtools.ResourceScript
		if i < len(types) {
			typ = types[i]
		}
		if l.group.Match(filterlist.Request{URL: u, Type: typ, PageHost: pageHost}).Blocked {
			return true
		}
	}
	return false
}
