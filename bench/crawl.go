package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/obs"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// The study and store_crawl workloads: core.RunStudy exactly as
// cmd/wsrepro calls it, with or without Options.Store. Nothing else
// differs between the two, so their per-page gap is the store's write
// cost.

// crawlOptions is the one place the crawl workloads' core.Options are
// built; workers and store are the only knobs.
func crawlOptions(cfg runConfig, dir string, workers int, store bool) core.Options {
	return core.Options{
		Seed:          cfg.Seed,
		NumPublishers: cfg.Size.Publishers,
		Workers:       workers,
		PagesPerSite:  cfg.Size.PagesPerSite,
		Store:         store,
		Dispatch:      &core.DispatchOptions{StateDir: dir},
	}
}

// crawlRun is one timed unit of a crawl workload: a RunStudy + Report,
// or one fabric crawl.
type crawlRun struct {
	cost      cost
	pages     int64
	attempted int64
	failed    int64
	retries   int64
	disk      int64    // bytes left under the state dir
	digests   []string // one per crawl, in crawl order
	report    string   // sha256 of the rendered report; "" for a fabric crawl
}

// runStudy runs the four crawls and renders the report under a fresh
// state directory, timing first lease to rendered report.
func runStudy(ctx context.Context, cfg runConfig, workers int, store bool) (*crawlRun, error) {
	dir, err := stateDir(cfg.StateRoot, cfg.Workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	p := startProbe()
	study, err := core.RunStudy(ctx, crawlOptions(cfg, dir, workers, store))
	if err != nil {
		return nil, err
	}
	report := study.Report()
	run := &crawlRun{cost: p.stop(), report: sha256Hex([]byte(report))}
	for _, r := range study.Results {
		failedSites := int64(len(r.Dispatch.FailedSites))
		run.pages += r.Stats.Pages
		run.failed += r.Stats.PageErrors + failedSites
		run.attempted += r.Stats.Pages + r.Stats.PageErrors + failedSites
		run.retries += r.Dispatch.Progress.Retries
		d, err := datasetDigest(r.Dataset)
		if err != nil {
			return nil, err
		}
		run.digests = append(run.digests, d)
	}
	if run.pages == 0 {
		return nil, fmt.Errorf("study recorded no pages")
	}
	if run.disk, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return run, nil
}

// sameStudy reports the first difference between two runs of the same
// seed.
func sameStudy(a, b *crawlRun, what string) error {
	if a.report != b.report {
		return fmt.Errorf("%s: rendered reports differ (sha256 %s vs %s)", what, a.report, b.report)
	}
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			return fmt.Errorf("%s: crawl %d datasets differ (sha256 %s vs %s)", what, i, a.digests[i], b.digests[i])
		}
	}
	return nil
}

// referenceCrawl0 crawls crawl 0 on the plain dispatch path (spool +
// live fold, no store, no fabric) and returns its dataset digest: the
// bytes every crawl workload's crawl-0 dataset must equal.
func referenceCrawl0(ctx context.Context, cfg runConfig) (string, error) {
	dir, err := stateDir(cfg.StateRoot, "reference")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	res, err := core.RunCrawl(ctx, crawlOptions(cfg, dir, 2, false), core.DefaultCrawls()[0])
	if err != nil {
		return "", err
	}
	return datasetDigest(res.Dataset)
}

// warmupSites is how many sites' homepages a set-up visits: one
// checkpoint interval's worth, enough that one socket-opening homepage
// does not decide setup_s.
const warmupSites = 8

// crawlSetup performs what a crawl needs before its first timed page —
// world build, list parse, labeler, server start, and the first pages to
// fault everything in — and returns how long that took.
func crawlSetup(ctx context.Context, cfg runConfig) (float64, error) {
	start := time.Now()
	spec := core.DefaultCrawls()[0]
	world := webgen.NewWorld(webgen.Config{
		Seed:          cfg.Seed,
		NumPublishers: cfg.Size.Publishers,
		Era:           spec.Era,
		CrawlIndex:    spec.CrawlIndex,
	})
	lab := labeler.New(
		filterlist.Parse("easylist", world.EasyListText()),
		filterlist.Parse("easyprivacy", world.EasyPrivacyText()))
	lab.SetCDNMap(world.CloudfrontMap())
	server, err := webserver.StartWith(world, webserver.Options{})
	if err != nil {
		return 0, err
	}
	defer server.Close()
	b := browser.New(browser.Config{
		Version:    spec.BrowserVersion,
		Seed:       cfg.Seed,
		HTTPClient: server.Client(),
		ResolveWS:  server.Resolver(),
		Fetch:      server.Fetch,
	})
	for _, pub := range world.Publishers[:min(warmupSites, len(world.Publishers))] {
		if _, err := b.Visit(ctx, "http://"+pub.Domain+"/"); err != nil {
			return 0, fmt.Errorf("set-up page visit: %w", err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// crawlSetupReps is how often a crawl workload sets up; a set-up takes a
// few milliseconds, so the median needs many to be steady.
const crawlSetupReps = 21

// runCrawlWorkload is study (store=false) and store_crawl (store=true).
func runCrawlWorkload(ctx context.Context, cfg runConfig, store bool) (*result, error) {
	if cfg.Traced {
		return runCrawlTraced(ctx, cfg, store)
	}
	res := newResult()
	setup, err := medianSetup(crawlSetupReps, func() (float64, error) { return crawlSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	var runs []*crawlRun
	if _, err := repeatFor(cfg.Seconds, func(rep int) error {
		r, err := runStudy(ctx, cfg.forRep(rep), 2, store)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	// Two runs of the same seed must agree, and on store_crawl the
	// store-derived bytes must equal the fold-derived ones: crawl 0 of the
	// first repetition against a second crawl 0 on the plain path.
	ref, err := referenceCrawl0(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if runs[0].digests[0] != ref {
		return nil, fmt.Errorf("crawl 0 dataset (sha256 %s) differs from a second run on the plain dispatch path (sha256 %s)", runs[0].digests[0], ref)
	}

	res.setEndToEnd(setup, runs)
	res.Digests["crawl0"] = runs[0].digests[0]
	res.Digests["report"] = runs[0].report
	res.notef("%d studies (seeds %d..%d) of about %d pages each (%d publishers x %d pages x 4 crawls, 2 crawl workers)",
		len(runs), cfg.Seed, cfg.Seed+int64(len(runs))-1, runs[0].pages, cfg.Size.Publishers, cfg.Size.PagesPerSite)
	return res, nil
}

// setEndToEnd reports a batch workload's end-to-end metrics: medians
// over its repetitions, one op being one recorded page.
func (r *result) setEndToEnd(setup float64, runs []*crawlRun) {
	var pps, cpu []float64
	for _, run := range runs {
		r.Attempted += run.attempted
		r.Failed += run.failed
		pps = append(pps, float64(run.pages)/run.cost.Wall)
		cpu = append(cpu, run.cost.CPU*1e6/float64(run.pages))
	}
	r.set("setup_s", setup)
	r.set("ops_per_s", median(pps))
	r.set("cpu_us_per_op", median(cpu))
	r.set("peak_rss_mb", peakRSSMiB())
	r.notef("disk_bytes_per_page %.1f B, allocs_per_page %.1f",
		float64(runs[0].disk)/float64(runs[0].pages), float64(runs[0].cost.Mallocs)/float64(runs[0].pages))
}

// untracedPassMetrics are the per-layer values every crawl workload
// takes from the untraced single-worker pass of a traced run: its own
// cost, and the deltas of the program's exact counters across it.
func untracedPassMetrics(un *crawlRun, od *obsDelta) map[string]float64 {
	pages := float64(un.pages)
	m := map[string]float64{
		"allocs_per_page":             float64(un.cost.Mallocs) / pages,
		"disk_bytes_per_page":         float64(un.disk) / pages,
		"core.pages_per_s_1worker":    pages / un.cost.Wall,
		"browser.requests_per_page":   od.counter(obs.MBrowserRequests) / pages,
		"browser.sockets_per_page":    od.counter(obs.MSocketsOpened) / pages,
		"dispatch.checkpoints":        od.counter(obs.MCheckpointWrites),
		"webserver.ws_handshakes":     od.counter(obs.MServerHandshakes),
		"obs.crawl_visit_us_per_page": od.histUS(obs.MCrawlVisit) / pages,
	}
	if reqs := od.counter(obs.MMatchRequests); reqs > 0 {
		m["filterlist.cache_hit_ratio"] = od.counter(obs.MMatchCacheHits) / reqs
	}
	return m
}

// obsDelta is the change in the program's own counters and histogram
// sums across a region, read through obs.Default.Snapshot.
type obsDelta struct{ before, after obs.Snapshot }

func obsStart() obsDelta {
	//lint:allow observeonly the benchmark is a binary that observes the program from outside, like cmd/; nothing it reads feeds back into a crawl
	return obsDelta{before: obs.Default.Snapshot()}
}

func (d *obsDelta) stop() {
	//lint:allow observeonly see obsStart
	d.after = obs.Default.Snapshot()
}

func (d *obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// histUS is the microseconds a histogram accumulated in the region.
func (d *obsDelta) histUS(name string) float64 {
	return float64(d.after.Hists[name].Sum-d.before.Hists[name].Sum) / 1e3
}

// runCrawlTraced produces the per-layer numbers of study/store_crawl:
// an untraced single-worker pass (the base for the overhead ratio and
// the source of every obs-derived count), then the traced pass, whose
// datasets and report must match the untraced ones byte for byte.
func runCrawlTraced(ctx context.Context, cfg runConfig, store bool) (*result, error) {
	res := newResult()
	var perRep []map[string]float64
	if _, err := repeatFor(cfg.Seconds, func(rep int) error {
		cfg := cfg.forRep(rep)
		od := obsStart()
		un, err := runStudy(ctx, cfg, 1, store)
		if err != nil {
			return err
		}
		od.stop()
		tr, err := tracedStudy(ctx, cfg, store)
		if err != nil {
			return err
		}
		if err := sameStudy(un, &crawlRun{digests: tr.digests, report: tr.report}, "traced vs untraced"); err != nil {
			return err
		}
		res.Attempted += un.attempted + tr.attempted
		res.Failed += un.failed + tr.failed
		if rep == 0 {
			res.Spans = tr.spans
			res.Digests["crawl0"] = un.digests[0]
			res.Digests["report"] = un.report
		}
		perRep = append(perRep, crawlLayerMetrics(un, &od, tr))
		return nil
	}); err != nil {
		return nil, err
	}
	res.setMedians(perRep)
	res.notef("%d passes: untraced 1-worker study then traced study, datasets and report byte-identical", len(perRep))
	return res, nil
}

// crawlLayerMetrics turns one untraced/traced pair into the per-layer
// metric values. Spans give exclusive (self) and inclusive times; the
// replay numbers are shares of their enclosing span re-measured on a
// twin labeler/builder; obs-derived counts come from the untraced pass.
func crawlLayerMetrics(un *crawlRun, od *obsDelta, tr *tracedRun) map[string]float64 {
	self := selfTimes(tr.spans)
	dur, calls := spanTotals(tr.spans)
	pages := float64(tr.pages)
	unPages := float64(un.pages)
	perPageUS := func(ns int64) float64 { return float64(ns) / 1e3 / pages }
	meanMS := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(dur[name]) / 1e6 / float64(calls[name])
	}
	m := untracedPassMetrics(un, od)
	m["webgen.world_build_ms"] = meanMS(spanWorld)
	m["filterlist.parse_ms"] = meanMS(spanParseList)
	m["webserver.fetch_us_per_page"] = perPageUS(dur[spanFetch])
	m["webserver.fetches_per_page"] = float64(calls[spanFetch]) / pages
	m["webserver.fetch_bytes_per_page"] = float64(tr.replay.fetchBytes) / pages
	visitSelf := perPageUS(self[spanVisit])
	parse, decode := perPageUS(tr.replay.parseNS), perPageUS(tr.replay.decodeNS)
	m["browser.visit_self_us_per_page"] = visitSelf
	m["htmlparse.parse_us_per_page"] = parse
	m["script.decode_us_per_page"] = decode
	m["browser.other_us_per_page"] = visitSelf - parse - decode
	build, tag := perPageUS(tr.replay.buildNS), perPageUS(tr.replay.tagNS)
	m["inclusion.build_us_per_page"] = build
	m["labeler.tag_us_per_page"] = tag
	record := perPageUS(dur[spanRecord])
	m["analysis.record_us_per_page"] = record
	m["analysis.record_other_us_per_page"] = record - build - tag
	m["analysis.encode_us_per_page"] = perPageUS(tr.replay.encodeNS)
	m["analysis.spool_bytes_per_page"] = float64(tr.replay.spoolBytes) / pages
	m["analysis.fold_us_per_page"] = perPageUS(dur[spanFold])
	m["analysis.merge_ms"] = meanMS(spanFinalize)
	m["analysis.report_ms"] = meanMS(spanReport)
	m["dispatch.append_us_per_page"] = perPageUS(dur[spanAppend])
	m["dispatch.flush_us_per_page"] = perPageUS(dur[spanFlush])
	m["dispatch.checkpoint_ms"] = meanMS(spanCheckpoint)
	m["dispatch.retries"] = float64(un.retries)
	m["colstore.ingest_us_per_page"] = perPageUS(dur[spanIngest])
	m["colstore.seal_ms"] = meanMS(spanSeal)
	m["colstore.seals"] = od.counter(obs.MStoreSeals)
	m["colstore.dir_syncs"] = od.counter(obs.MStoreDirSyncs)
	m["colstore.segment_bytes_per_page"] = od.counter(obs.MStoreBytes) / unPages
	m["obs.crawl_record_us_per_page"] = od.histUS(obs.MCrawlRecord) / unPages
	m["obs.crawl_commit_us_per_page"] = od.histUS(obs.MCrawlCommit) / unPages
	m["trace.unaccounted_us_per_page"] = perPageUS(self[spanRoot])
	m["trace.overhead_ratio"] = (tr.wall / pages) / (un.cost.Wall / unPages)
	return m
}
