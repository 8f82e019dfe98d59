package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dispatch"
	"repro/internal/filterlist"
	"repro/internal/htmlparse"
	"repro/internal/inclusion"
	"repro/internal/labeler"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// The traced crawl: the page path core.RunCrawl + dispatch.Run wire
// together, re-assembled here from the same public functions with one
// crawl worker, so that a span can sit around every call into a layer.
// Nothing inside the program is instrumented. That the re-assembly is
// the real path is proved, not assumed: its datasets and report must be
// byte-identical to core.RunStudy's.

// Span names. A span is named after the public function it wraps.
const (
	spanRoot       = "trace"
	spanWorld      = "webgen.NewWorld"
	spanServer     = "webserver.StartWith"
	spanParseList  = "filterlist.Parse"
	spanVisit      = "browser.Visit"
	spanSiteTail   = "crawler.CrawlSite.tail"
	spanFetch      = "webserver.Fetch"
	spanRecord     = "analysis.RecordPage"
	spanReplay     = "bench.replay"
	spanAppend     = "dispatch.Append"
	spanFold       = "analysis.Fold"
	spanIngest     = "colstore.Ingest"
	spanFlush      = "dispatch.Flush"
	spanSeal       = "colstore.Seal"
	spanCheckpoint = "dispatch.WriteAtomic"
	spanFinalize   = "analysis.Finalize"
	spanReport     = "core.Report"
)

// Mirrors of the values core and dispatch default to; the byte-identity
// check fails if they drift.
const (
	spoolShards     = 8
	checkpointEvery = 8
)

var spoolBatch = dispatch.BatchPolicy{Pages: 64, Bytes: 256 * 1024}

// replayStats accumulates the replay measurements: layer functions the
// harness cannot wrap (they are called from inside Visit, RecordPage or
// Append) re-run on the inputs the traced page just produced, on a twin
// builder/labeler so the real dataset is untouched.
type replayStats struct {
	parseNS, decodeNS int64 // htmlparse.Parse, script.Decode over fetched bodies
	buildNS, tagNS    int64 // inclusion Builder.Build, Labeler.TagTree
	encodeNS          int64 // analysis.EncodeSpoolRecord
	spoolBytes        int64
	fetchBytes        int64
}

// tracedRun is the outcome of one traced study.
type tracedRun struct {
	spans     []span
	wall      float64
	nextPage  int // page ids are unique across the study's crawls
	pages     int64
	attempted int64
	failed    int64
	digests   []string
	report    string
	replay    replayStats
}

// countingDiscard counts the bytes an encoder writes.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// tracedStudy runs the four crawls and the report through the
// re-assembled path under one root span.
func tracedStudy(ctx context.Context, cfg runConfig, store bool) (*tracedRun, error) {
	dir, err := stateDir(cfg.StateRoot, cfg.Workload+"-traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	run := &tracedRun{}
	tr := newTracer()
	start := time.Now()
	root := tr.begin(spanRoot, -1)
	var results []*core.CrawlResult
	for _, spec := range core.DefaultCrawls() {
		ds, err := tracedCrawl(ctx, tr, run, cfg, spec, dir, store)
		if err != nil {
			return nil, fmt.Errorf("traced crawl %d: %w", spec.CrawlIndex, err)
		}
		results = append(results, &core.CrawlResult{Spec: spec, Dataset: ds})
	}
	id := tr.begin(spanReport, -1)
	report := (&core.Study{Results: results}).Report()
	tr.end(id)
	tr.end(root)
	run.wall = time.Since(start).Seconds()
	run.report = sha256Hex([]byte(report))
	for _, r := range results {
		d, err := datasetDigest(r.Dataset)
		if err != nil {
			return nil, err
		}
		run.digests = append(run.digests, d)
	}
	run.spans = tr.spans
	return run, nil
}

// pageBody is one fetched body kept for the htmlparse/script replays.
type pageBody struct {
	html bool
	body []byte
}

// tracedCrawl is one crawl through the re-assembled dispatch path.
func tracedCrawl(ctx context.Context, tr *tracer, run *tracedRun, cfg runConfig, spec core.CrawlSpec, dir string, store bool) (*analysis.Dataset, error) {
	id := tr.begin(spanWorld, -1)
	world := webgen.NewWorld(webgen.Config{
		Seed:          cfg.Seed,
		NumPublishers: cfg.Size.Publishers,
		Era:           spec.Era,
		CrawlIndex:    spec.CrawlIndex,
	})
	tr.end(id)
	id = tr.begin(spanServer, -1)
	server, err := webserver.StartWith(world, webserver.Options{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	id = tr.begin(spanParseList, -1)
	easylist := filterlist.Parse("easylist", world.EasyListText())
	tr.end(id)
	id = tr.begin(spanParseList, -1)
	easyprivacy := filterlist.Parse("easyprivacy", world.EasyPrivacyText())
	tr.end(id)
	lab := labeler.New(easylist, easyprivacy)
	lab.SetCDNMap(world.CloudfrontMap())
	twinLab := labeler.New(easylist, easyprivacy)
	twinLab.SetCDNMap(world.CloudfrontMap())
	twinBuilder := inclusion.NewBuilder()

	meta := analysis.DatasetMeta{Name: spec.Name, Era: spec.Era.String(), CrawlIndex: spec.CrawlIndex}
	recorder := &analysis.Recorder{Label: lab, Pooled: true}
	spool, err := dispatch.OpenSpoolBatch(filepath.Join(dir, fmt.Sprintf("spool-crawl%d", spec.CrawlIndex)), spoolShards, false, spoolBatch)
	if err != nil {
		return nil, err
	}
	defer spool.Close()
	var st *colstore.Store
	var folder *analysis.Folder
	if store {
		st, err = colstore.Open(colstore.Config{
			Dir:       filepath.Join(dir, fmt.Sprintf("store-crawl%d", spec.CrawlIndex)),
			NumShards: spoolShards,
			Meta:      meta,
		})
		if err != nil {
			return nil, err
		}
	} else {
		folder = analysis.NewFolder(meta)
	}

	crawlSeed := cfg.Seed + int64(spec.CrawlIndex)
	cpPath := filepath.Join(dir, fmt.Sprintf("crawl%d.checkpoint.json", spec.CrawlIndex))
	var jobs []dispatch.JobRecord
	writeCheckpoint := func() error {
		id := tr.begin(spanFlush, -1)
		err := spool.Flush()
		tr.end(id)
		if err != nil {
			return err
		}
		if st != nil {
			id := tr.begin(spanSeal, -1)
			err := st.Seal()
			tr.end(id)
			if err != nil {
				return err
			}
		}
		cp := &dispatch.Checkpoint{
			Version:      dispatch.CheckpointVersion,
			Name:         spec.Name,
			Seed:         crawlSeed,
			NumShards:    spoolShards,
			PagesPerSite: cfg.Size.PagesPerSite,
			TotalSites:   len(world.Publishers),
		}
		cp.SetJobs(jobs)
		if cp.ShardBytes, err = spool.ShardSizes(); err != nil {
			return err
		}
		id = tr.begin(spanCheckpoint, -1)
		err = cp.WriteAtomic(cpPath)
		tr.end(id)
		return err
	}

	// Per-page state shared by the fetch wrapper and onPage.
	var (
		bodies  []pageBody
		visit   = -1 // the open span that will turn out to be a Visit or a site tail
		pageErr error
	)
	fetch := func(u *urlutil.URL, post []byte) (int, string, []byte, error) {
		id := tr.begin(spanFetch, run.nextPage)
		status, ctype, body, err := server.Fetch(u, post)
		tr.end(id)
		run.replay.fetchBytes += int64(len(body))
		switch {
		case strings.HasPrefix(ctype, "text/html"):
			bodies = append(bodies, pageBody{html: true, body: body})
		case strings.HasPrefix(ctype, "application/javascript"):
			bodies = append(bodies, pageBody{body: body})
		}
		return status, ctype, body, err
	}
	onPage := func(site crawler.Site, pageURL string, res *browser.PageResult) {
		page := run.nextPage
		tr.relabel(visit, spanVisit, page)
		tr.end(visit)
		id := tr.begin(spanRecord, page)
		rec, err := recorder.RecordPage(site, pageURL, res)
		tr.end(id)
		if err == nil {
			id = tr.begin(spanReplay, page)
			replayPage(&run.replay, twinBuilder, twinLab, res, bodies, rec)
			tr.end(id)
			id = tr.begin(spanAppend, page)
			err = spool.Append(rec)
			tr.end(id)
		}
		if err == nil && folder != nil {
			id = tr.begin(spanFold, page)
			folder.Fold(rec)
			tr.end(id)
		}
		if err == nil && st != nil {
			id = tr.begin(spanIngest, page)
			_, err = st.Ingest(rec)
			tr.end(id)
		}
		if err != nil && pageErr == nil {
			pageErr = fmt.Errorf("page %s: %w", pageURL, err)
		}
		run.nextPage++
		bodies = bodies[:0]
		visit = tr.begin(spanSiteTail, -1)
	}

	var stats crawler.Stats
	ccfg := crawler.Config{PagesPerSite: cfg.Size.PagesPerSite, Seed: crawlSeed, OnPage: onPage}
	for i, pub := range world.Publishers {
		site := crawler.Site{Domain: pub.Domain, Rank: pub.Rank}
		b := browser.New(browser.Config{
			Version:      spec.BrowserVersion,
			Seed:         crawler.SiteSeed(crawlSeed, site.Domain),
			HTTPClient:   server.Client(),
			ResolveWS:    server.Resolver(),
			ReuseScratch: true,
			Fetch:        fetch,
		})
		visit = tr.begin(spanSiteTail, -1)
		_, err := crawler.CrawlSite(ctx, b, site, ccfg, &stats)
		tr.end(visit)
		job := dispatch.JobRecord{Domain: site.Domain, Rank: site.Rank, State: dispatch.JobDone, Attempts: 1}
		if err != nil {
			// The real path would retry; the benchmark's workloads have no
			// failing sites, so a failure here is counted and kept failed.
			job.State, job.LastErr = dispatch.JobFailed, err.Error()
			run.failed++
			run.attempted++
		}
		jobs = append(jobs, job)
		if pageErr != nil {
			return nil, pageErr
		}
		if (i+1)%checkpointEvery == 0 {
			if err := writeCheckpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := writeCheckpoint(); err != nil {
		return nil, err
	}
	id = tr.begin(spanFlush, -1)
	err = spool.Flush()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	run.pages += stats.Pages
	run.attempted += stats.Pages + stats.PageErrors
	run.failed += stats.PageErrors

	id = tr.begin(spanFinalize, -1)
	var ds *analysis.Dataset
	if st != nil {
		ds, _ = st.Finalize()
	} else {
		ds, _ = folder.Finalize()
	}
	tr.end(id)
	if st != nil {
		id = tr.begin(spanSeal, -1)
		err = st.Close()
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// replayPage re-runs, with a stopwatch, the layer functions that the
// page just went through inside Visit, RecordPage and Append.
func replayPage(rs *replayStats, b *inclusion.Builder, lab *labeler.Labeler, res *browser.PageResult, bodies []pageBody, rec *analysis.PageRecord) {
	for _, pb := range bodies {
		t := time.Now()
		if pb.html {
			htmlparse.Parse(string(pb.body))
			rs.parseNS += time.Since(t).Nanoseconds()
		} else {
			_, _ = script.Decode(string(pb.body)) // bodies without a program are the common case
			rs.decodeNS += time.Since(t).Nanoseconds()
		}
	}
	t := time.Now()
	tree, err := b.Build(res.Trace)
	rs.buildNS += time.Since(t).Nanoseconds()
	if err == nil {
		t = time.Now()
		lab.TagTree(tree)
		rs.tagNS += time.Since(t).Nanoseconds()
	}
	var sink countingDiscard
	t = time.Now()
	_ = analysis.EncodeSpoolRecord(&sink, rec) // the sink cannot fail; Append reports real encode errors
	rs.encodeNS += time.Since(t).Nanoseconds()
	rs.spoolBytes += sink.n
}
