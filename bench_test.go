// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (run with `go test -bench=. -benchmem`).
//
// The per-table benchmarks share one four-crawl study (built once, at
// reduced scale) and report the paper-relevant quantities as custom
// benchmark metrics, so `go test -bench Table1` both times the analysis
// and prints the reproduced numbers. The Ablation benchmarks cover the
// design choices DESIGN.md calls out: the WRB itself, extension match
// patterns, attribution method, and the A&A labeling threshold.
package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/adblock"
	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/htmlparse"
	"repro/internal/inclusion"
	"repro/internal/labeler"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
	"repro/internal/wsproto"
)

// ---- shared study fixture ----

var (
	studyOnce sync.Once
	studyDS   []*analysis.Dataset
	studyErr  error
)

// benchStudy runs the four-crawl study once at benchmark scale.
func benchStudy(b *testing.B) []*analysis.Dataset {
	b.Helper()
	studyOnce.Do(func() {
		opts := core.Options{Seed: 20170419, NumPublishers: 200, Workers: 8, PagesPerSite: 8}
		study, err := core.RunStudy(context.Background(), opts)
		if err != nil {
			studyErr = err
			return
		}
		studyDS = study.Datasets()
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyDS
}

// BenchmarkTable1 regenerates the high-level crawl statistics (Table 1).
func BenchmarkTable1(b *testing.B) {
	ds := benchStudy(b)
	var rows []analysis.Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.Table1(ds...)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows[0].UniqueAAInitiators), "pre_AA_initiators")
	b.ReportMetric(float64(rows[len(rows)-1].UniqueAAInitiators), "post_AA_initiators")
	b.ReportMetric(rows[0].PctSitesWithSockets, "pct_sites_with_sockets")
	b.ReportMetric(rows[0].PctAAInitiated, "pct_AA_initiated")
}

// BenchmarkTable2 regenerates the top-initiators table (Table 2).
func BenchmarkTable2(b *testing.B) {
	ds := benchStudy(b)
	var rows []analysis.InitiatorRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.Table2(15, ds...)
	}
	b.StopTimer()
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Receivers), "top_initiator_receivers")
	}
}

// BenchmarkTable3 regenerates the A&A receivers table (Table 3).
func BenchmarkTable3(b *testing.B) {
	ds := benchStudy(b)
	var rows []analysis.ReceiverRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.Table3(15, ds...)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(rows)), "aa_receivers")
}

// BenchmarkTable4 regenerates the initiator/receiver pairs (Table 4).
func BenchmarkTable4(b *testing.B) {
	ds := benchStudy(b)
	var rows []analysis.PairRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.Table4(15, ds...)
	}
	b.StopTimer()
	for _, r := range rows {
		if r.SelfAggregate {
			b.ReportMetric(float64(r.SocketCount), "self_pair_sockets")
		}
	}
}

// BenchmarkTable5 regenerates the content analysis (Table 5).
func BenchmarkTable5(b *testing.B) {
	ds := benchStudy(b)
	var res analysis.Table5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Table5(ds...)
	}
	b.StopTimer()
	for _, r := range res.Sent {
		switch r.Item {
		case content.SentCookie:
			b.ReportMetric(r.WSPct, "ws_cookie_pct")
		case content.SentDOM:
			b.ReportMetric(r.WSPct, "ws_dom_pct")
		}
	}
	b.ReportMetric(res.PctWSNoSent, "ws_nodata_pct")
}

// BenchmarkFigure3 regenerates the rank-prevalence series (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	ds := benchStudy(b)
	var bins []analysis.RankBin
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bins = analysis.Figure3Binned(analysis.DefaultRankEdges, ds...)
	}
	b.StopTimer()
	if len(bins) > 0 {
		b.ReportMetric(bins[0].PctAASites, "top_bin_AA_pct")
		b.ReportMetric(bins[0].PctNonAASites, "top_bin_nonAA_pct")
	}
}

// BenchmarkFigure4 extracts the WebSocket-served ads (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	ds := benchStudy(b)
	var ads []analysis.AdExample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ads = analysis.Figure4(6, ds...)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ads)), "ws_served_ads")
}

// BenchmarkOverview computes the §4.1/§4.2 aggregates, including the
// 5%-vs-27% blockable-chain comparison.
func BenchmarkOverview(b *testing.B) {
	ds := benchStudy(b)
	var o analysis.Overview
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o = analysis.ComputeOverview(ds...)
	}
	b.StopTimer()
	b.ReportMetric(o.PctCrossOrigin, "pct_cross_origin")
	b.ReportMetric(o.PctAASocketChainsBlocked, "pct_socket_chains_blockable")
	b.ReportMetric(o.PctAAHTTPChainsBlocked, "pct_http_chains_blockable")
}

// ---- end-to-end page loads ----

type benchEnv struct {
	world  *webgen.World
	server *webserver.Server
	pages  []string // pages that open A&A sockets
}

var (
	envOnce sync.Once
	env     *benchEnv
	envErr  error
)

func benchPageEnv(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		w := webgen.NewWorld(webgen.Config{Seed: 99, NumPublishers: 150, Era: webgen.EraPrePatch})
		s, err := webserver.Start(w)
		if err != nil {
			envErr = err
			return
		}
		e := &benchEnv{world: w, server: s}
		// Pre-scan for pages whose A&A sockets come from scripts the
		// lists cannot block — the circumvention scenario; only there
		// can post-patch blocking show an effect.
		group := filterlist.NewGroup(
			filterlist.Parse("easylist", w.EasyListText()),
			filterlist.Parse("easyprivacy", w.EasyPrivacyText()),
		)
		br := browser.New(browser.Config{Version: 57, Seed: 1, HTTPClient: s.Client(), ResolveWS: s.Resolver()})
		for _, p := range w.Publishers {
			if len(e.pages) >= 5 {
				break
			}
			for page := 0; page <= 2 && page <= p.NumPages; page++ {
				url := "http://" + p.Domain + "/"
				if page > 0 {
					url = fmt.Sprintf("http://%s/page/%d", p.Domain, page)
				}
				res, err := br.Visit(context.Background(), url)
				if err != nil {
					continue
				}
				scripts := map[devtools.ScriptID]string{}
				for _, ev := range res.Trace.Events {
					if sp, ok := ev.(devtools.ScriptParsed); ok {
						scripts[sp.ScriptID] = sp.URL
					}
				}
				for _, ev := range res.Trace.Events {
					ws, ok := ev.(devtools.WebSocketCreated)
					if !ok {
						continue
					}
					u, err := urlutil.Parse(ws.URL)
					if err != nil {
						continue
					}
					c := w.CompanyByDomain(u.RegistrableDomain())
					if c == nil || !c.AA || !c.AcceptsWS {
						continue
					}
					su, err := urlutil.Parse(scripts[ws.Initiator.ScriptID])
					if err != nil {
						continue
					}
					d := group.Match(filterlist.Request{URL: su, Type: devtools.ResourceScript, PageHost: p.Domain})
					if !d.Blocked {
						e.pages = append(e.pages, url)
						break
					}
				}
			}
		}
		env = e
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	if len(env.pages) == 0 {
		b.Fatal("no A&A socket pages found")
	}
	return env
}

// BenchmarkPageLoad measures one full instrumented page load (HTTP,
// script execution, WebSockets, event capture) over loopback TCP.
func BenchmarkPageLoad(b *testing.B) {
	e := benchPageEnv(b)
	br := browser.New(browser.Config{Version: 57, Seed: 2, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Visit(context.Background(), e.pages[i%len(e.pages)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblationWRB loads the same socket-opening pages with a fully
// armed blocker under a pre-patch and a post-patch browser, reporting
// how many A&A sockets escape in each configuration.
func BenchmarkAblationWRB(b *testing.B) {
	e := benchPageEnv(b)
	easylist := filterlist.Parse("easylist", e.world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", e.world.EasyPrivacyText())
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())

	for _, cfg := range []struct {
		name    string
		version int
	}{
		{"Chrome57_WRB_live", 57},
		{"Chrome58_patched", 58},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			br := browser.New(
				browser.Config{Version: cfg.version, Seed: 3, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
				adblock.New("ublock", adblock.AllURLs, easylist, easyprivacy, mitigation),
			)
			escaped, blocked := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := br.Visit(context.Background(), e.pages[i%len(e.pages)])
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range res.Trace.Events {
					switch ev := ev.(type) {
					case devtools.WebSocketCreated:
						escaped++
					case devtools.RequestBlocked:
						if ev.Type == devtools.ResourceWebSocket {
							blocked++
						}
					}
				}
			}
			b.StopTimer()
			per := float64(b.N)
			b.ReportMetric(float64(escaped)/per, "sockets_escaped/op")
			b.ReportMetric(float64(blocked)/per, "sockets_blocked/op")
		})
	}
}

// BenchmarkAblationPatterns compares extension registration styles on a
// patched browser: <all_urls> versus the historical http/https-only
// patterns Franken et al. flagged.
func BenchmarkAblationPatterns(b *testing.B) {
	e := benchPageEnv(b)
	easylist := filterlist.Parse("easylist", e.world.EasyListText())
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())

	for _, cfg := range []struct {
		name  string
		style adblock.PatternStyle
	}{
		{"all_urls", adblock.AllURLs},
		{"http_only", adblock.HTTPOnlyPatterns},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			br := browser.New(
				browser.Config{Version: 58, Seed: 4, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
				adblock.New("blocker", cfg.style, easylist, mitigation),
			)
			wsBlocked := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := br.Visit(context.Background(), e.pages[i%len(e.pages)])
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range res.Trace.Events {
					if rb, ok := ev.(devtools.RequestBlocked); ok && rb.Type == devtools.ResourceWebSocket {
						wsBlocked++
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(wsBlocked)/float64(b.N), "ws_blocked/op")
		})
	}
}

// BenchmarkAblationAttribution quantifies why the paper uses inclusion
// trees (§3.1): the share of sockets a naive Referer-based attribution
// (crediting the first party) would misattribute versus inclusion-tree
// attribution.
func BenchmarkAblationAttribution(b *testing.B) {
	ds := benchStudy(b)
	var mis, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis, total = 0, 0
		for _, d := range ds {
			for _, ws := range d.Sockets {
				total++
				refererAttribution := urlutil.RegistrableDomain(hostOf(ws.PageURL))
				if ws.InitiatorDomain != refererAttribution {
					mis++
				}
			}
		}
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(100*float64(mis)/float64(total), "pct_referer_misattributed")
	}
}

func hostOf(raw string) string {
	u, err := urlutil.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Host
}

// BenchmarkAblationThreshold sweeps the a(d) >= t*n(d) labeling
// threshold of §3.2 and reports the resulting D' sizes.
func BenchmarkAblationThreshold(b *testing.B) {
	w := webgen.NewWorld(webgen.Config{Seed: 20170419, NumPublishers: 200, Era: webgen.EraPrePatch})
	easylist := filterlist.Parse("easylist", w.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", w.EasyPrivacyText())
	lab := labeler.New(easylist, easyprivacy)
	lab.SetCDNMap(w.CloudfrontMap())
	// Tag each page's requests straight from the world's page plans and
	// the widget scripts they include (no network needed for this
	// ablation), and sum the deltas as the dataset merge does.
	aa, non := map[string]int{}, map[string]int{}
	for _, p := range w.Publishers[:100] {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			plan := w.PlanFor(p, page)
			var scriptURLs []string
			scriptURLs = append(scriptURLs, plan.DirectURLs...)
			for _, op := range plan.AppProgram.Ops {
				if op.Do == script.OpIncludeScript {
					scriptURLs = append(scriptURLs, op.URL)
				}
			}
			var urls []string
			for _, su := range scriptURLs {
				urls = append(urls, su)
				// Follow the widget script's own requests (beacons,
				// pixels): that is where partial-rule domains earn
				// their a(d) observations.
				res, ok := w.Get(su)
				if !ok {
					continue
				}
				prog, err := script.Decode(string(res.Body))
				if err != nil || prog == nil {
					continue
				}
				for _, op := range prog.Ops {
					if op.URL != "" && strings.HasPrefix(op.URL, "http") {
						urls = append(urls, op.URL)
					}
				}
			}
			a, n, _ := lab.TagTree(scriptRequestTree(b, "http://"+p.Domain+"/", urls))
			for d, c := range a {
				aa[d] += c
			}
			for d, c := range n {
				non[d] += c
			}
		}
	}
	sizes := map[float64]int{}
	thresholds := []float64{0.001, 0.1, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range thresholds {
			sizes[t] = len(labeler.Domains(aa, non, t))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sizes[0.001]), "D_at_0pct")
	b.ReportMetric(float64(sizes[0.1]), "D_at_10pct")
	b.ReportMetric(float64(sizes[0.5]), "D_at_50pct")
}

// scriptRequestTree is the inclusion tree of a page whose parser issued
// the given URLs as script requests, in order.
func scriptRequestTree(b *testing.B, pageURL string, urls []string) *inclusion.Tree {
	tr := devtools.NewTrace()
	tr.Record(devtools.FrameNavigated{FrameID: "F1", URL: pageURL, Initiator: devtools.ParserInitiator("F1")})
	for i, u := range urls {
		tr.Record(devtools.RequestWillBeSent{
			RequestID: devtools.RequestID(fmt.Sprint("R", i)), URL: u, Type: devtools.ResourceScript,
			FrameID: "F1", Initiator: devtools.ParserInitiator("F1"), FirstPartyURL: pageURL,
		})
	}
	tree, err := inclusion.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// ---- substrate micro-benchmarks ----

// BenchmarkWSFrameRoundTrip measures the RFC 6455 codec.
func BenchmarkWSFrameRoundTrip(b *testing.B) {
	payload := []byte(strings.Repeat("tracking-data;", 64))
	var buf strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := &wsproto.Frame{FIN: true, Opcode: wsproto.OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: payload}
		if err := wsproto.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := wsproto.ReadFrame(strings.NewReader(buf.String()), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

// BenchmarkFilterMatch measures rule matching against the generated
// EasyList + EasyPrivacy.
func BenchmarkFilterMatch(b *testing.B) {
	w := webgen.NewWorld(webgen.Config{Seed: 1, NumPublishers: 10, Era: webgen.EraPrePatch})
	group := filterlist.NewGroup(
		filterlist.Parse("easylist", w.EasyListText()),
		filterlist.Parse("easyprivacy", w.EasyPrivacyText()),
	)
	urls := []*urlutil.URL{
		urlutil.MustParse("http://cdn.doubleclick.net/w.js?pub=x&pg=1"),
		urlutil.MustParse("http://benign.example/lib/app.js"),
		urlutil.MustParse("ws://intercom.io/ws?sid=1&n=1"),
		urlutil.MustParse("http://cdn.google-analytics.com/track/b?pub=x"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := urls[i%len(urls)]
		group.Match(filterlist.Request{URL: u, Type: devtools.ResourceScript, PageHost: "pub.example"})
	}
}

// BenchmarkHTMLParse measures page parsing on a generated publisher
// homepage.
func BenchmarkHTMLParse(b *testing.B) {
	w := webgen.NewWorld(webgen.Config{Seed: 1, NumPublishers: 10, Era: webgen.EraPrePatch})
	page := string(w.RenderPage(w.Publishers[0], 0))
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmlparse.Parse(page)
	}
}

// BenchmarkInclusionBuild measures inclusion-tree construction from a
// captured page trace.
func BenchmarkInclusionBuild(b *testing.B) {
	e := benchPageEnv(b)
	br := browser.New(browser.Config{Version: 57, Seed: 5, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()})
	res, err := br.Visit(context.Background(), e.pages[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inclusion.Build(res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentClassify measures the Table 5 classifier.
func BenchmarkContentClassify(b *testing.B) {
	payloads := [][]byte{
		[]byte("ua=Mozilla/5.0 (Windows NT 10.0)&cookie=uid=1; _ga=2&screen=1920x1080"),
		[]byte(`{"type":"update","seq":1}`),
		[]byte("<div class=\"msg\"><p>hello</p></div>"),
		{0xFF, 0x01, 0x02},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		content.DetectSent(p)
		content.ClassifyReceived(p)
	}
}

// BenchmarkAblationUBOExtra measures the historical mitigation: a
// page-level WebSocket wrapper (uBO-Extra style) blocking A&A sockets
// even on a pre-patch browser where the webRequest layer is blind.
func BenchmarkAblationUBOExtra(b *testing.B) {
	e := benchPageEnv(b)
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())
	for _, cfg := range []struct {
		name  string
		build func() browser.Extension
	}{
		{"webrequest_only", func() browser.Extension {
			return adblock.New("ublock", adblock.AllURLs, mitigation)
		}},
		{"with_socket_guard", func() browser.Extension {
			return adblock.NewSocketGuard("ubo-extra", adblock.AllURLs, mitigation)
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// Pre-patch browser: the WRB is live in both runs; only the
			// guard can intervene.
			br := browser.New(
				browser.Config{Version: 57, Seed: 6, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
				cfg.build(),
			)
			escaped, blocked := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := br.Visit(context.Background(), e.pages[i%len(e.pages)])
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range res.Trace.Events {
					switch ev := ev.(type) {
					case devtools.WebSocketCreated:
						escaped++
					case devtools.RequestBlocked:
						if ev.Type == devtools.ResourceWebSocket {
							blocked++
						}
					}
				}
			}
			b.StopTimer()
			per := float64(b.N)
			b.ReportMetric(float64(escaped)/per, "sockets_escaped/op")
			b.ReportMetric(float64(blocked)/per, "sockets_blocked/op")
		})
	}
}

// BenchmarkAblationFeatureBlock measures the bluntest strategy (Snyder
// et al.): disable the WebSocket feature entirely. Everything is
// blocked, including the legitimate chat and realtime sockets §6 calls
// "The Good".
func BenchmarkAblationFeatureBlock(b *testing.B) {
	e := benchPageEnv(b)
	br := browser.New(
		browser.Config{Version: 57, Seed: 7, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
		adblock.NewFeatureBlocker("no-websockets"),
	)
	created, blocked := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := br.Visit(context.Background(), e.pages[i%len(e.pages)])
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range res.Trace.Events {
			switch ev := ev.(type) {
			case devtools.WebSocketCreated:
				created++
			case devtools.RequestBlocked:
				if ev.Type == devtools.ResourceWebSocket {
					blocked++
				}
			}
		}
	}
	b.StopTimer()
	per := float64(b.N)
	b.ReportMetric(float64(created)/per, "sockets_opened/op")
	b.ReportMetric(float64(blocked)/per, "sockets_blocked/op")
}
