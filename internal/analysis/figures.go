package analysis

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/devtools"
	"repro/internal/inclusion"
)

// TimelineEvent is one entry of the Figure 1 WRB timeline.
type TimelineEvent struct {
	Date  string
	Event string
}

// Figure1Timeline returns the WRB timeline (Figure 1): fixed historical
// facts from §2.3.
func Figure1Timeline() []TimelineEvent {
	return []TimelineEvent{
		{"2012-05", "Original bug reported: chrome.webRequest.onBeforeRequest does not intercept WebSockets (Chromium issue 129353)"},
		{"2014-12", "AdBlock Plus users report unblockable ads, Chrome only"},
		{"2016-08", "EasyList and uBlock Origin users observe ads served via WebSockets; users report unblocked ads"},
		{"2016-11", "Pornhub caught circumventing ad blockers using WebSockets"},
		{"2017-04-02", "Crawl 1 (this study, pre-patch)"},
		{"2017-04-11", "Crawl 2 (this study, pre-patch)"},
		{"2017-04-19", "Patch lands: Chrome 58 released with WebSocket support in the webRequest API"},
		{"2017-05-07", "Crawl 3 (this study, post-patch)"},
		{"2017-10-12", "Crawl 4 (this study, post-patch)"},
	}
}

// RenderFigure1 formats the timeline.
func RenderFigure1() string {
	var b strings.Builder
	b.WriteString("Figure 1: Timeline of key events related to the webRequest bug (WRB)\n")
	for _, ev := range Figure1Timeline() {
		fmt.Fprintf(&b, "  %-10s  %s\n", ev.Date, ev.Event)
	}
	return b.String()
}

// RenderFigure2 builds the paper's Figure 2 example trace and renders
// its inclusion tree: a worked example, not crawl output.
func RenderFigure2() string {
	tr := devtools.NewTrace()
	for _, ev := range []devtools.Event{
		&devtools.FrameNavigated{FrameID: "F1", URL: "http://pub/index.html", Initiator: devtools.ParserInitiator("F1")},
		&devtools.ScriptParsed{ScriptID: "S1", URL: "http://pub/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
		&devtools.ScriptParsed{ScriptID: "S2", URL: "http://ads/script.js", FrameID: "F1", Initiator: devtools.ScriptInitiator("S1")},
		&devtools.RequestWillBeSent{RequestID: "R1", URL: "http://ads/image.img", Type: devtools.ResourceImage, FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub/index.html"},
		&devtools.WebSocketCreated{SocketID: "W1", URL: "ws://adnet/data.ws", FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub/index.html"},
		&devtools.ScriptParsed{ScriptID: "S3", URL: "http://tracker/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
	} {
		tr.Record(ev)
	}
	tree, err := inclusion.Build(tr)
	if err != nil {
		return fmt.Sprintf("figure 2 demo failed: %v\n", err)
	}
	return "Figure 2: inclusion tree for the paper's example page\n" +
		"(note the WebSocket as a child of the requesting JavaScript)\n\n" +
		tree.RenderASCII()
}

// RankBin is one Figure 3 data point: the share of sites in a rank bin
// exhibiting A&A and non-A&A sockets.
type RankBin struct {
	// LowRank is the bin's inclusive lower bound.
	LowRank int
	// Sites is the number of crawled sites in the bin.
	Sites int
	// PctAASites is the percentage of the bin's sites with at least
	// one A&A socket.
	PctAASites float64
	// PctNonAASites is the percentage with at least one non-A&A
	// socket.
	PctNonAASites float64
}

// DefaultRankEdges are the variable-width bins used when rendering
// Figure 3 at reproduction scale: fine bins where the paper's drop
// happens (10K–20K), coarser bins in the long tail.
var DefaultRankEdges = []int{0, 10_000, 20_000, 50_000, 100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000}

// Figure3Binned computes the Figure 3 socket-prevalence series (the two
// curves it plots over rank) over explicit bin edges: each bin spans
// [edges[i], edges[i+1]) and the final bin is open-ended.
func Figure3Binned(edges []int, datasets ...*Dataset) []RankBin {
	binFor := func(rank int) int {
		lo := edges[0]
		for _, e := range edges {
			if rank >= e {
				lo = e
			}
		}
		return lo
	}
	aa := UnionAASet(datasets...)
	type acc struct {
		sites, aaSites, nonAASites int
	}
	bins := map[int]*acc{}
	for _, d := range datasets {
		// Per-site socket presence for this crawl.
		siteAA := map[string]bool{}
		siteNonAA := map[string]bool{}
		for _, ws := range d.Sockets {
			if aaChain(ws, aa) || aa[ws.ReceiverDomain] {
				siteAA[ws.Site] = true
			} else {
				siteNonAA[ws.Site] = true
			}
		}
		for _, s := range d.Sites {
			bin := binFor(s.Rank)
			a := bins[bin]
			if a == nil {
				a = &acc{}
				bins[bin] = a
			}
			a.sites++
			if siteAA[s.Domain] {
				a.aaSites++
			}
			if siteNonAA[s.Domain] {
				a.nonAASites++
			}
		}
	}
	keys := make([]int, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]RankBin, 0, len(keys))
	for _, k := range keys {
		a := bins[k]
		rb := RankBin{LowRank: k, Sites: a.sites}
		if a.sites > 0 {
			rb.PctAASites = 100 * float64(a.aaSites) / float64(a.sites)
			rb.PctNonAASites = 100 * float64(a.nonAASites) / float64(a.sites)
		}
		out = append(out, rb)
	}
	return out
}

// RenderFigure3 formats the rank series with ASCII bars.
func RenderFigure3(bins []RankBin) string {
	var b strings.Builder
	b.WriteString("Figure 3: WebSocket usage by Alexa site rank (% of sites in bin)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Rank bin\tSites\tA&A %\tnon-A&A %\t")
	maxPct := 0.0
	for _, bin := range bins {
		if bin.PctAASites > maxPct {
			maxPct = bin.PctAASites
		}
	}
	for _, bin := range bins {
		bar := ""
		if maxPct > 0 {
			bar = strings.Repeat("#", int(bin.PctAASites/maxPct*30+0.5)) +
				strings.Repeat("-", int(bin.PctNonAASites/maxPct*30+0.5))
		}
		fmt.Fprintf(w, "%d+\t%d\t%.2f\t%.2f\t%s\n", bin.LowRank, bin.Sites, bin.PctAASites, bin.PctNonAASites, bar)
	}
	w.Flush()
	b.WriteString("(# = A&A sockets, - = non-A&A sockets)\n")
	return b.String()
}

// AdExample is one Figure 4 creative.
type AdExample struct {
	Site     string
	Receiver string
	Caption  string
}

// Figure4 collects example ads served via WebSockets (the Lockerdome
// clickbait of Figure 4).
func Figure4(limit int, datasets ...*Dataset) []AdExample {
	var out []AdExample
	seen := map[string]bool{}
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			for _, cap := range ws.AdSamples {
				if seen[cap] {
					continue
				}
				seen[cap] = true
				out = append(out, AdExample{Site: ws.Site, Receiver: ws.ReceiverDomain, Caption: cap})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// RenderFigure4 formats the ad examples.
func RenderFigure4(ads []AdExample) string {
	var b strings.Builder
	b.WriteString("Figure 4: Example ads received over WebSockets\n")
	if len(ads) == 0 {
		b.WriteString("  (none observed)\n")
		return b.String()
	}
	for _, ad := range ads {
		fmt.Fprintf(&b, "  %q — served by %s on %s\n", ad.Caption, ad.Receiver, ad.Site)
	}
	return b.String()
}

// Overview carries the §4.1 aggregate statistics not in any numbered
// table.
type Overview struct {
	Sockets                  int
	PctCrossOrigin           float64
	PctAAReceived            float64
	UniqueThirdPartyDomains  int
	UniqueAAReceiverDomains  int
	PctAAReceiversWith10Plus float64
	// Blocking analysis of §4.2.
	PctAASocketChainsBlocked float64
	PctAAHTTPChainsBlocked   float64
}

// ComputeOverview derives the §4.1/§4.2 aggregates.
func ComputeOverview(datasets ...*Dataset) Overview {
	aa := UnionAASet(datasets...)
	var o Overview
	thirdParty := map[string]bool{}
	aaRecv := map[string]map[string]bool{} // receiver -> initiator set
	crossOrigin, aaReceived := 0, 0
	aaSocketChains, aaSocketBlocked := 0, 0
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			o.Sockets++
			if ws.CrossOrigin {
				crossOrigin++
				thirdParty[ws.ReceiverDomain] = true
			}
			if aa[ws.ReceiverDomain] {
				aaReceived++
				set := aaRecv[ws.ReceiverDomain]
				if set == nil {
					set = map[string]bool{}
					aaRecv[ws.ReceiverDomain] = set
				}
				set[ws.InitiatorDomain] = true
				aaSocketChains++
				if ws.ChainBlocked {
					aaSocketBlocked++
				}
			}
		}
	}
	httpAAChains, httpAABlocked := 0, 0
	for _, d := range datasets {
		for dom, t := range d.HTTPByDomain {
			if !aa[dom] {
				continue
			}
			httpAAChains += t.Requests
			httpAABlocked += t.ChainsBlocked
		}
	}
	pct := func(n, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	o.PctCrossOrigin = pct(crossOrigin, o.Sockets)
	o.PctAAReceived = pct(aaReceived, o.Sockets)
	o.UniqueThirdPartyDomains = len(thirdParty)
	o.UniqueAAReceiverDomains = len(aaRecv)
	tenPlus := 0
	for _, set := range aaRecv {
		if len(set) >= 10 {
			tenPlus++
		}
	}
	o.PctAAReceiversWith10Plus = pct(tenPlus, len(aaRecv))
	o.PctAASocketChainsBlocked = pct(aaSocketBlocked, aaSocketChains)
	o.PctAAHTTPChainsBlocked = pct(httpAABlocked, httpAAChains)
	return o
}

// RenderOverview formats the overview stats.
func RenderOverview(o Overview) string {
	var b strings.Builder
	b.WriteString("Overview (§4.1 / §4.2 aggregates)\n")
	fmt.Fprintf(&b, "  Total sockets observed:                   %d\n", o.Sockets)
	fmt.Fprintf(&b, "  %% sockets cross-origin:                   %.1f\n", o.PctCrossOrigin)
	fmt.Fprintf(&b, "  %% sockets contacting an A&A domain:       %.1f\n", o.PctAAReceived)
	fmt.Fprintf(&b, "  Unique third-party receiver domains:      %d\n", o.UniqueThirdPartyDomains)
	fmt.Fprintf(&b, "  Unique A&A receiver domains:              %d\n", o.UniqueAAReceiverDomains)
	fmt.Fprintf(&b, "  %% A&A receivers contacted by >=10 parties: %.1f\n", o.PctAAReceiversWith10Plus)
	fmt.Fprintf(&b, "  %% chains to A&A sockets blockable:        %.1f\n", o.PctAASocketChainsBlocked)
	fmt.Fprintf(&b, "  %% chains to A&A HTTP resources blockable: %.1f\n", o.PctAAHTTPChainsBlocked)
	return b.String()
}

// Churn compares A&A initiators between the first and last crawl
// (§4.1's 56 disappearing initiators, including DoubleClick, Facebook,
// and AddThis).
type Churn struct {
	FirstCrawl, LastCrawl string
	Disappeared           []string
	Appeared              []string
	Persisted             []string
}

// ComputeChurn diffs unique A&A initiator sets between two datasets.
func ComputeChurn(first, last *Dataset, allAA map[string]bool) Churn {
	initiators := func(d *Dataset) map[string]bool {
		out := map[string]bool{}
		for _, ws := range d.Sockets {
			if aaChain(ws, allAA) {
				out[initiatorOfRecord(ws, allAA)] = true
			}
		}
		return out
	}
	a, b := initiators(first), initiators(last)
	ch := Churn{FirstCrawl: first.Name, LastCrawl: last.Name}
	for dom := range a {
		if b[dom] {
			ch.Persisted = append(ch.Persisted, dom)
		} else {
			ch.Disappeared = append(ch.Disappeared, dom)
		}
	}
	for dom := range b {
		if !a[dom] {
			ch.Appeared = append(ch.Appeared, dom)
		}
	}
	sort.Strings(ch.Disappeared)
	sort.Strings(ch.Appeared)
	sort.Strings(ch.Persisted)
	return ch
}

// RenderChurn formats the churn diff.
func RenderChurn(ch Churn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A&A initiator churn: %s -> %s\n", ch.FirstCrawl, ch.LastCrawl)
	fmt.Fprintf(&b, "  Disappeared (%d): %s\n", len(ch.Disappeared), strings.Join(ch.Disappeared, ", "))
	fmt.Fprintf(&b, "  Appeared (%d): %s\n", len(ch.Appeared), strings.Join(ch.Appeared, ", "))
	fmt.Fprintf(&b, "  Persisted (%d): %s\n", len(ch.Persisted), strings.Join(ch.Persisted, ", "))
	return b.String()
}
