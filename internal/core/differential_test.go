package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/browser"
	"repro/internal/webgen"
)

// newReferencePlane builds the retained seed plane: wire fetches and
// WebSockets through the full TCP + net/http stack, every browser of the
// plane sharing one keep-alive pool. Everything else — browsers, their
// fault draws, recorder, the durable ledger — is the shipping one; the
// reference for per-page scratch reuse lives in the browser's and the
// recorder's own tests. It produces the same bytes as the shipping plane
// and exists only as the differential oracle proving that.
func newReferencePlane(opts Options, spec CrawlSpec) (*pagePlane, error) {
	p, err := newPagePlane(opts, spec)
	if err != nil {
		return nil, err
	}
	client, resolve := p.server.Client(), p.server.Resolver()
	p.newBrowser = func(cfg browser.Config) *browser.Browser {
		cfg.Fetch, cfg.DialWS = nil, nil
		cfg.HTTPClient, cfg.ResolveWS = client, resolve
		return browser.New(cfg)
	}
	return p, nil
}

// crawlPlane crawls on a shipping or reference plane the way RunCrawl
// does.
func crawlPlane(ctx context.Context, opts Options, spec CrawlSpec, reference bool) (*CrawlResult, error) {
	build := newPagePlane
	if reference {
		build = newReferencePlane
	}
	plane, err := build(opts, spec)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	return plane.crawl(ctx)
}

// runPipeline runs one dispatched crawl on the shipping plane or the
// reference plane, under the named fault profile (empty: none), and
// returns the dataset's exact JSON bytes.
func runPipeline(t *testing.T, profile string, reference bool) []byte {
	t.Helper()
	res, err := crawlPlane(context.Background(), Options{
		Seed: 4242, NumPublishers: 18, Workers: 4, PagesPerSite: 3,
		FaultProfile: profile, FaultSeed: 3,
		Dispatch: &DispatchOptions{
			StateDir: filepath.Join(t.TempDir(), "state"),
		},
	}, CrawlSpec{Name: "diff-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}, reference)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineDifferential is the page plane's non-negotiable
// invariant: the shipping plane's in-process fetches and sockets produce
// a byte-identical dataset to the retained seed/reference plane's TCP +
// net/http transport, fault-free and under the flaky profile, whose
// faults the browser draws per connection whichever transport carries
// it. A transport that changes one byte a page sees, or the order
// records arrive in, fails here.
func TestPipelineDifferential(t *testing.T) {
	var faultFree []byte
	for _, profile := range []string{"", "flaky"} {
		name := profile
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			reference := runPipeline(t, profile, true)
			optimized := runPipeline(t, profile, false)
			if !bytes.Equal(reference, optimized) {
				t.Fatalf("optimized pipeline dataset differs from reference: %d bytes vs %d bytes",
					len(optimized), len(reference))
			}
			if profile == "" {
				faultFree = optimized
			} else if bytes.Equal(optimized, faultFree) {
				t.Fatal("the flaky profile changed no byte of the dataset")
			}
		})
	}
}
