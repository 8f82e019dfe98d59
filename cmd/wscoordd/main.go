// Command wscoordd runs the distributed-crawl coordinator: it shards
// one crawl's site list into deterministic batches, serves them to
// wscrawl workers over WebSocket (internal/fabric), appends their page
// records to the crawl's durable ledger (sharded spool + checkpoint, and
// with -store-dir a columnar store), and writes the dataset when every
// batch has settled.
//
// Usage:
//
//	wscoordd -out crawl1.json -checkpoint state/cp.json [-spool-dir DIR]
//	         [-addr HOST:PORT] [-era pre|post] [-index N] [-publishers N]
//	         [-pages N] [-seed S] [-version 57] [-batch-size N]
//	         [-shards N] [-lease-ttl DUR] [-retries N] [-resume]
//	         [-metrics-addr HOST:PORT] [-progress DUR]
//	         [-store-dir DIR] [-query-addr HOST:PORT]
//	         [-fault-profile NAME] [-fault-seed S]
//
// With -store-dir the coordinator also ingests every streamed page into
// an embedded columnar store (internal/colstore), sealed at checkpoint
// boundaries, and derives -out from it exactly as wscrawl -store does;
// -query-addr serves the wsquery HTTP API over that store live, while
// the crawl is still running (OPERATIONS.md "Query service").
//
// Workers join with:
//
//	wscrawl -worker ws://HOST:PORT/fabric [-workers N]
//
// The coordinator commits batch progress after every settled batch
// (spool flush, store seal, then an atomic checkpoint in wscrawl's own
// format — DESIGN.md §7); killing it and restarting with -resume (same
// flags, same -addr) continues the crawl without re-crawling completed
// batches, and workers ride out the outage with seeded dial retry.
// Because every site's records are a pure function of (seed, site) and
// the dataset derivation canonicalizes ordering, the dataset is
// byte-identical no matter how many workers ran or how the crawl was
// interrupted (DESIGN.md §12, OPERATIONS.md "Distributed crawls").
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/webgen"
)

func main() {
	var (
		out         = flag.String("out", "", "output dataset path (required)")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address for workers (\":0\" picks a port)")
		eraFlag     = flag.String("era", "pre", "crawl era: pre or post (relative to the Chrome 58 patch)")
		index       = flag.Int("index", 0, "crawl index (perturbs session randomness)")
		publishers  = flag.Int("publishers", 600, "number of generic publishers")
		pages       = flag.Int("pages", 15, "page budget per site")
		seed        = flag.Int64("seed", 20170419, "world seed")
		version     = flag.Int("version", 0, "browser version (default: 57 pre-patch, 58 post-patch)")
		batchSize   = flag.Int("batch-size", 0, "sites per leased batch (default 16)")
		shards      = flag.Int("shards", 0, "spool shard count (default 8)")
		leaseTTL    = flag.Duration("lease-ttl", 0, "batch lease TTL (default 30s)")
		retries     = flag.Int("retries", 0, "per-batch attempt budget (default 3)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint state file (required unless -spool-dir is set)")
		spoolDir    = flag.String("spool-dir", "", "spool shard directory (derived from -checkpoint if empty)")
		storeDir    = flag.String("store-dir", "", "ingest streamed pages into a columnar store at this directory")
		queryAddr   = flag.String("query-addr", "", "serve the store query API on this address (requires -store-dir)")
		resume      = flag.Bool("resume", false, "resume an interrupted crawl from its checkpoint")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar + pprof on this address (\":0\" picks a port)")
		progress    = flag.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
		faultProf   = flag.String("fault-profile", "", "degrade worker links with this faultnet profile: "+strings.Join(faultnet.Names(), ", "))
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault schedules (same seed = same faults)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "wscoordd: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	cp, sd := *checkpoint, *spoolDir
	if cp == "" && sd == "" {
		fmt.Fprintln(os.Stderr, "wscoordd: -checkpoint or -spool-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if sd == "" {
		sd = filepath.Join(filepath.Dir(cp), "spool")
	}
	if cp == "" {
		cp = filepath.Join(sd, "checkpoint.json")
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wscoordd:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wscoordd: metrics on http://%s/debug/vars (pprof at /debug/pprof/)\n", msrv.Addr())
	}
	if *progress > 0 {
		rep := obs.NewReporter(os.Stderr, *progress, obs.Default)
		rep.Start()
		defer rep.Stop()
	}

	era := webgen.EraPrePatch
	if *eraFlag == "post" {
		era = webgen.EraPostPatch
	} else if *eraFlag != "pre" {
		fmt.Fprintf(os.Stderr, "wscoordd: unknown era %q\n", *eraFlag)
		os.Exit(2)
	}
	bv := *version
	if bv == 0 {
		bv = 57
		if era == webgen.EraPostPatch {
			bv = 58
		}
	}
	spec := core.CrawlSpec{
		Name:           fmt.Sprintf("%s-crawl-%d", era, *index),
		Era:            era,
		CrawlIndex:     *index,
		BrowserVersion: bv,
	}
	opts := core.Options{Seed: *seed, NumPublishers: *publishers, PagesPerSite: *pages}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "wscoordd: "+format+"\n", args...)
	}

	if *queryAddr != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "wscoordd: -query-addr requires -store-dir")
		os.Exit(2)
	}

	coord, err := core.StartFabricCoordinator(opts, spec, core.FabricCoordinatorOptions{
		Addr:           *addr,
		BatchSize:      *batchSize,
		NumShards:      *shards,
		LeaseTTL:       *leaseTTL,
		MaxAttempts:    *retries,
		CheckpointPath: cp,
		SpoolDir:       sd,
		Resume:         *resume,
		StoreDir:       *storeDir,
		FaultProfile:   *faultProf,
		FaultSeed:      *faultSeed,
		Logf:           logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wscoordd:", err)
		os.Exit(1)
	}
	if *queryAddr != "" {
		ln, lerr := net.Listen("tcp", *queryAddr)
		if lerr != nil {
			coord.Close()
			fmt.Fprintln(os.Stderr, "wscoordd:", lerr)
			os.Exit(1)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, colstore.NewHandler(coord.Store())) }()
		fmt.Fprintf(os.Stderr, "wscoordd: query API on http://%s (live: /dataset, /tables, /chains)\n", ln.Addr())
	}
	// The e2e harness scrapes this exact line for the worker URL.
	fmt.Fprintf(os.Stderr, "wscoordd: serving %s\n", coord.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := coord.Wait(ctx); err != nil {
		// Interrupted: checkpoint what we have and leave the dataset for
		// a -resume run to finish.
		coord.Close()
		fmt.Fprintln(os.Stderr, "wscoordd: interrupted; progress checkpointed to", cp)
		os.Exit(1)
	}

	ds, stats, err := coord.Finalize(core.FabricDatasetMeta(spec))
	if err != nil {
		coord.Close()
		fmt.Fprintln(os.Stderr, "wscoordd:", err)
		os.Exit(1)
	}
	prog := coord.Progress()
	failed := coord.FailedSites()
	if err := coord.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wscoordd:", err)
		os.Exit(1)
	}
	if err := dispatch.WriteAtomic(*out, ds.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "wscoordd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wscoordd: %d sites, %d pages (%d duplicate), %d sockets, %d A&A domains -> %s\n",
		len(ds.Sites), stats.Pages, stats.Duplicates, len(ds.Sockets), len(ds.AADomains), *out)
	fmt.Fprintf(os.Stderr, "wscoordd: fabric: %d/%d batches done, %d failed, %d batches resumed, %d failed sites\n",
		prog.Done, prog.Total, prog.Failed, coord.ResumedDone(), len(failed))
}
