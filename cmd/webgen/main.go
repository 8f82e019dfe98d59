// Command webgen generates the synthetic web and serves it on a local
// port, so the ecosystem can be explored with ordinary tools (curl with
// a Host header, a WebSocket client, a real browser with a hosts
// override).
//
// Usage:
//
//	webgen [-publishers N] [-seed S] [-era pre|post]
//	       [-list-hosts] [-dump-rules]
//
// Explore it with:
//
//	curl -H 'Host: espn.com' http://127.0.0.1:PORT/
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/webgen"
	"repro/internal/webserver"
)

func main() {
	var (
		publishers = flag.Int("publishers", 200, "number of generic publishers")
		seed       = flag.Int64("seed", 20170419, "world seed")
		eraFlag    = flag.String("era", "pre", "company behaviour era: pre or post")
		listHosts  = flag.Bool("list-hosts", false, "print all virtual hosts and exit")
		dumpRules  = flag.Bool("dump-rules", false, "print the generated EasyList and EasyPrivacy and exit")
	)
	flag.Parse()

	era, err := webgen.ParseEra(*eraFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webgen:", err)
		flag.Usage()
		os.Exit(2)
	}
	world := webgen.NewWorld(webgen.Config{Seed: *seed, NumPublishers: *publishers, Era: era})

	if *listHosts {
		for _, h := range world.Hosts() {
			fmt.Println(h)
		}
		return
	}
	if *dumpRules {
		fmt.Println("### EasyList ###")
		fmt.Print(world.EasyListText())
		fmt.Println("\n### EasyPrivacy ###")
		fmt.Print(world.EasyPrivacyText())
		fmt.Println("\n### WebSocket mitigation rules ###")
		fmt.Print(world.MitigationRulesText())
		return
	}

	srv, err := webserver.Start(world)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webgen:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("serving %d publishers and %d companies on http://%s/\n",
		len(world.Publishers), len(world.Companies), srv.Addr())
	fmt.Printf("example: curl -H 'Host: %s' http://%s/\n", world.Publishers[0].Domain, srv.Addr())
	fmt.Println("press Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintf(os.Stderr, "\nstats: %d http requests, %d ws handshakes, %d ws messages\n",
		srv.Stats.HTTPRequests.Load(), srv.Stats.WSHandshakes.Load(), srv.Stats.WSMessagesSent.Load())
}
