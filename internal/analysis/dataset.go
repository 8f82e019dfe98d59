// Package analysis holds the crawl dataset model, the Recorder and
// Folder that build datasets from live page loads (spool.go), and the
// generators for every table and figure in the paper's evaluation (§4).
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/content"
	"repro/internal/crawler"
	"repro/internal/inclusion"
)

// SiteSummary is the per-site crawl outcome.
type SiteSummary struct {
	Domain  string `json:"domain"`
	Rank    int    `json:"rank"`
	Pages   int    `json:"pages"`
	Sockets int    `json:"sockets"`
}

// SocketRecord is one observed WebSocket connection with everything the
// tables need.
type SocketRecord struct {
	Site            string   `json:"site"`
	Rank            int      `json:"rank"`
	PageURL         string   `json:"pageUrl"`
	URL             string   `json:"url"`
	ReceiverDomain  string   `json:"receiver"`
	InitiatorDomain string   `json:"initiator"`
	ChainDomains    []string `json:"chainDomains"`
	ChainURLs       []string `json:"chainUrls"`
	CrossOrigin     bool     `json:"crossOrigin"`
	HandshakeOK     bool     `json:"handshakeOk"`
	// SentItems is the Table 5 item union over handshake headers and
	// data frames.
	SentItems []string `json:"sentItems,omitempty"`
	// RecvClasses are the received-content classes present (HTML,
	// JSON, …).
	RecvClasses []string `json:"recvClasses,omitempty"`
	FramesSent  int      `json:"framesSent"`
	FramesRecv  int      `json:"framesRecv"`
	// ChainBlocked records the post-hoc filter-list check of §4.2: a
	// script along the chain would have been blocked.
	ChainBlocked bool `json:"chainBlocked"`
	// AdRefs counts ad-creative references in received frames, and
	// AdSamples keeps a few captions (Figure 4).
	AdRefs    int      `json:"adRefs,omitempty"`
	AdSamples []string `json:"adSamples,omitempty"`
}

// DomainTraffic aggregates HTTP/S observations for one 2nd-level domain
// (Table 5's comparison columns and the §4.2 blockable-chain baseline).
type DomainTraffic struct {
	Domain        string         `json:"domain"`
	Requests      int            `json:"requests"`
	SentItems     map[string]int `json:"sentItems,omitempty"`
	RecvClasses   map[string]int `json:"recvClasses,omitempty"`
	ChainsBlocked int            `json:"chainsBlocked"`
}

// Dataset is one crawl's complete measurement output.
type Dataset struct {
	Name       string `json:"name"`
	Era        string `json:"era"`
	CrawlIndex int    `json:"crawlIndex"`

	Sites   []SiteSummary  `json:"sites"`
	Sockets []SocketRecord `json:"sockets"`
	// HTTPByDomain aggregates plain HTTP/S traffic per 2nd-level
	// domain.
	HTTPByDomain map[string]*DomainTraffic `json:"httpByDomain"`
	// AADomains is the derived D′ for this crawl.
	AADomains []string `json:"aaDomains"`
	// CDNCandidates are the opaque CDN hosts flagged for manual
	// mapping.
	CDNCandidates []string `json:"cdnCandidates,omitempty"`
}

// AASet returns D′ as a set.
func (d *Dataset) AASet() map[string]bool {
	out := make(map[string]bool, len(d.AADomains))
	for _, dom := range d.AADomains {
		out[dom] = true
	}
	return out
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadJSON parses a dataset.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("analysis: decode dataset: %w", err)
	}
	return &d, nil
}

// UnionAASet merges D′ across crawls, the fixed A&A vocabulary used
// when comparing crawls (the paper derives its set from an external
// dataset once).
func UnionAASet(datasets ...*Dataset) map[string]bool {
	out := map[string]bool{}
	for _, d := range datasets {
		for _, dom := range d.AADomains {
			out[dom] = true
		}
	}
	return out
}

// socketRecord converts one socket node into a compact record,
// classifying sent and received content.
func (c *Recorder) socketRecord(sc *recordScratch, site crawler.Site, pageURL, pageHost string, ws *inclusion.Node) SocketRecord {
	rec := SocketRecord{
		Site:            site.Domain,
		Rank:            site.Rank,
		PageURL:         pageURL,
		URL:             ws.URL,
		ReceiverDomain:  c.Label.NodeDomain(ws),
		InitiatorDomain: c.Label.NodeDomain(ws.Parent),
		CrossOrigin:     inclusion.CrossOrigin(ws),
		HandshakeOK:     ws.HandshakeStatus == 101,
		FramesSent:      len(ws.Sent),
		FramesRecv:      len(ws.Received),
	}
	var chain []*inclusion.Node
	if sc != nil {
		sc.chain = ws.AppendChain(sc.chain[:0])
		chain = sc.chain
	} else {
		chain = ws.Chain()
	}
	for _, n := range chain[:len(chain)-1] {
		rec.ChainDomains = append(rec.ChainDomains, c.Label.NodeDomain(n))
		rec.ChainURLs = append(rec.ChainURLs, n.URL)
	}
	// The §4.2 post-hoc check asks whether "scripts in the inclusion
	// chains leading to A&A sockets would have been blocked" — the
	// chain up to, but not including, the socket itself.
	rec.ChainBlocked = c.Label.MatchChain(chain[:len(chain)-1], pageHost)

	// Sent items: handshake headers plus every data frame, flattened
	// into one scratch slice — MergeItems is a pure union, so flattening
	// the per-frame sets first cannot change its output.
	var flat []string
	if sc != nil {
		flat = sc.items[:0]
	}
	flat = content.AppendSentHeaders(flat, ws.HandshakeHeader)
	for _, f := range ws.Sent {
		flat = content.AppendSent(flat, f.Payload)
	}
	if sc != nil {
		sc.items = flat
	}
	// MergeItems allocates the result fresh: rec retains it, so it must
	// never alias the pooled scratch.
	rec.SentItems = content.MergeItems(flat)

	recvSeen := map[string]bool{}
	if sc != nil {
		clear(sc.recvSeen)
		recvSeen = sc.recvSeen
	}
	for _, f := range ws.Received {
		cls := content.ClassifyReceived(f.Payload)
		if cls != "" && !recvSeen[cls] {
			recvSeen[cls] = true
			rec.RecvClasses = append(rec.RecvClasses, cls)
		}
		for _, ref := range content.ExtractAdRefs(f.Payload) {
			rec.AdRefs++
			if len(rec.AdSamples) < 3 {
				rec.AdSamples = append(rec.AdSamples, ref.Caption)
			}
		}
	}
	sort.Strings(rec.RecvClasses)
	return rec
}

// httpObservations aggregates one tree's HTTP requests per domain.
func (c *Recorder) httpObservations(sc *recordScratch, tree *inclusion.Tree, pageHost string) map[string]*DomainTraffic {
	out := map[string]*DomainTraffic{}
	var reqs []*inclusion.Node
	if sc != nil {
		// The sockets listing in RecordPage is done with sc.nodes by the
		// time httpObservations runs, so the scratch can be recycled.
		sc.nodes = tree.AppendKind(sc.nodes[:0], inclusion.KindRequest)
		reqs = sc.nodes
	} else {
		reqs = tree.Requests()
	}
	for _, req := range reqs {
		dom := c.Label.NodeDomain(req)
		if dom == "" {
			continue
		}
		t := out[dom]
		if t == nil {
			t = &DomainTraffic{Domain: dom, SentItems: map[string]int{}, RecvClasses: map[string]int{}}
			out[dom] = t
		}
		t.Requests++
		// The per-request items only feed counts in t.SentItems, so the
		// MergeItems union can be replaced by an in-place duplicate scan
		// over the (tiny) flattened set: each distinct item increments
		// its count exactly once, same as counting the merged set.
		var items []string
		if sc != nil {
			items = sc.items[:0]
		}
		items = content.AppendSentHeaders(items, req.Header)
		items = content.AppendSent(items, req.ReqBody)
		if sc != nil {
			sc.items = items
		}
		for i, item := range items {
			dup := false
			for _, prev := range items[:i] {
				if prev == item {
					dup = true
					break
				}
			}
			if !dup {
				t.SentItems[item]++
			}
		}
		if cls := classifyHTTPResponse(req); cls != "" {
			t.RecvClasses[cls]++
		}
		// As with sockets: a chain counts as blockable when a script
		// *leading to* the resource matches, not the leaf itself.
		var chain []*inclusion.Node
		if sc != nil {
			sc.chain = req.AppendChain(sc.chain[:0])
			chain = sc.chain
		} else {
			chain = req.Chain()
		}
		if c.Label.MatchChain(chain[:len(chain)-1], pageHost) {
			t.ChainsBlocked++
		}
	}
	return out
}

// classifyHTTPResponse classifies a response body, falling back to the
// declared MIME type for truncated bodies.
func classifyHTTPResponse(req *inclusion.Node) string {
	if cls := content.ClassifyReceived(req.RespBody); cls != "" {
		return cls
	}
	switch {
	case strings.Contains(req.MimeType, "javascript"):
		return content.RecvJavaScript
	case strings.Contains(req.MimeType, "html"):
		return content.RecvHTML
	case strings.Contains(req.MimeType, "json"):
		return content.RecvJSON
	case strings.Contains(req.MimeType, "image"):
		return content.RecvImage
	}
	return ""
}
