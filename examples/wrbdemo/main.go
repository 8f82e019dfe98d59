// wrbdemo demonstrates the webRequest bug itself: the same page is
// loaded three times —
//
//  1. Chrome 57 + uBlock-style blocker with $websocket rules: the WRB
//     means the extension never sees the socket; tracking data flows.
//
//  2. Chrome 58 + the same extension: the socket is blocked.
//
//  3. Chrome 58 + an extension registered only for http/https patterns
//     (the Franken et al. mistake): the socket flows again.
//
//     go run ./examples/wrbdemo
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/adblock"
	"repro/internal/browser"
	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

func main() {
	world := webgen.NewWorld(webgen.Config{Seed: 99, NumPublishers: 150, Era: webgen.EraPrePatch})
	server, err := webserver.Start(world)
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	easylist := filterlist.Parse("easylist", world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	mitigation := filterlist.Parse("ws-mitigation", world.MitigationRulesText())

	pageURL := findTrackedPage(world, server)
	if pageURL == "" {
		log.Fatal("no page with unblockable A&A sockets found; try another seed")
	}
	fmt.Printf("Demo page: %s\n\n", pageURL)

	run := func(label string, version int, ext browser.Extension) {
		b := browser.New(browser.Config{
			Version:    version,
			Seed:       7,
			HTTPClient: server.Client(),
			ResolveWS:  server.Resolver(),
		}, ext)
		res, err := b.Visit(context.Background(), pageURL)
		if err != nil {
			log.Fatal(err)
		}
		created, blocked, tracked := 0, 0, 0
		for _, ev := range res.Trace.Events {
			switch ev := ev.(type) {
			case *devtools.WebSocketCreated:
				created++
			case *devtools.RequestBlocked:
				if ev.Type == devtools.ResourceWebSocket {
					blocked++
				}
			case *devtools.WebSocketFrameSent:
				tracked += len(ev.Payload)
			}
		}
		fmt.Printf("%-52s sockets opened: %d, sockets blocked: %d, tracking bytes sent: %d\n",
			label, created, blocked, tracked)
	}

	full := func() browser.Extension {
		return adblock.New("ublock+mitigations", adblock.AllURLs, easylist, easyprivacy, mitigation)
	}
	naive := func() browser.Extension {
		return adblock.New("http-only-blocker", adblock.HTTPOnlyPatterns, easylist, easyprivacy, mitigation)
	}

	fmt.Println("The webRequest bug (Chromium issue 129353), reproduced:")
	run("Chrome 57 + blocker with $websocket rules (WRB live):", 57, full())
	run("Chrome 58 + the same blocker (WRB patched):", 58, full())
	run("Chrome 58 + blocker registered for http/https only:", 58, naive())
	fmt.Println("\nPre-patch, the extension cannot even observe the socket — exactly")
	fmt.Println("how A&A companies shipped tracking data past ad blockers for five years.")
}

// findTrackedPage hunts for a page that opens sockets to A&A receivers
// from scripts the lists cannot block (the circumvention scenario).
func findTrackedPage(world *webgen.World, server *webserver.Server) string {
	easylist := filterlist.Parse("easylist", world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	group := filterlist.NewGroup(easylist, easyprivacy)

	b := browser.New(browser.Config{
		Version: 57, Seed: 7,
		HTTPClient: server.Client(), ResolveWS: server.Resolver(),
	})
	for _, p := range world.Publishers {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			url := fmt.Sprintf("http://%s/", p.Domain)
			if page > 0 {
				url = fmt.Sprintf("http://%s/page/%d", p.Domain, page)
			}
			res, err := b.Visit(context.Background(), url)
			if err != nil {
				continue
			}
			scripts := map[devtools.ScriptID]string{}
			for _, ev := range res.Trace.Events {
				if sp, ok := ev.(*devtools.ScriptParsed); ok {
					scripts[sp.ScriptID] = sp.URL
				}
			}
			for _, ev := range res.Trace.Events {
				ws, ok := ev.(*devtools.WebSocketCreated)
				if !ok {
					continue
				}
				u, err := urlutil.Parse(ws.URL)
				if err != nil {
					continue
				}
				c := world.CompanyByDomain(u.RegistrableDomain())
				if c == nil || !c.AA || !c.AcceptsWS {
					continue
				}
				// The initiating script must itself be unblockable.
				su, err := urlutil.Parse(scripts[ws.Initiator.ScriptID])
				if err != nil {
					continue
				}
				d := group.Match(filterlist.Request{URL: su, Type: devtools.ResourceScript, PageHost: p.Domain})
				if !d.Blocked {
					return url
				}
			}
		}
	}
	return ""
}
