// Command wsquery serves the read-side query API over a crawl's
// columnar store (internal/colstore), or runs one-shot queries against
// it from the command line.
//
// Usage:
//
//	wsquery -store-dir state/store-crawl0 -addr 127.0.0.1:8080 [-metrics-addr HOST:PORT]
//	wsquery -store-dir state/store-crawl0 -table 3 [-top 15]
//	wsquery -store-dir state/store-crawl0 -dataset > dataset.json
//
// The store is opened read-only, so wsquery can follow a crawl that is
// still running: every sealed segment is visible, and GET /refresh (or
// re-running the command) picks up segments sealed since. Endpoints and
// the store.* metric family are documented in OPERATIONS.md under
// "Query service".
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/colstore"
	"repro/internal/obs"
)

func main() {
	var (
		storeDir    = flag.String("store-dir", "", "columnar store directory (required)")
		addr        = flag.String("addr", "", "serve the query API on this address (\":0\" picks a port)")
		table       = flag.Int("table", 0, "print this table (1-5) and exit")
		topN        = flag.Int("top", 0, "row budget for tables 2-4 (default 15)")
		dataset     = flag.Bool("dataset", false, "print the store-derived dataset JSON and exit")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar + pprof on this address")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "wsquery: -store-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if *addr == "" && *table == 0 && !*dataset {
		fmt.Fprintln(os.Stderr, "wsquery: nothing to do; pass -addr, -table, or -dataset")
		flag.Usage()
		os.Exit(2)
	}

	store, err := colstore.OpenRead(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsquery:", err)
		os.Exit(1)
	}
	engine := colstore.NewEngine(store)

	if *table != 0 {
		sec, rows, ok := engine.Table(*table)
		if !ok {
			fmt.Fprintf(os.Stderr, "wsquery: no such table %d (tables are 1-5)\n", *table)
			os.Exit(2)
		}
		fmt.Print(sec.Text(sec.Cut(rows, *topN)))
		return
	}
	if *dataset {
		ds, _ := engine.Dataset()
		if err := ds.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wsquery:", err)
			os.Exit(1)
		}
		return
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsquery:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wsquery: metrics on http://%s/debug/vars\n", msrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsquery:", err)
		os.Exit(1)
	}
	stats := store.Stats()
	fmt.Fprintf(os.Stderr, "wsquery: serving crawl %q (%d segments, %d pages) on http://%s\n",
		store.Meta().Name, stats.Segments, stats.Pages, ln.Addr())
	if err := http.Serve(ln, colstore.NewHandler(store)); err != nil {
		fmt.Fprintln(os.Stderr, "wsquery:", err)
		os.Exit(1)
	}
}
