package fabric

import (
	"context"
	"encoding/json"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fabric/wire"
)

func benchPage() *wire.Page {
	return &wire.Page{
		Batch: "b0042", Site: "site017.com",
		Line: json.RawMessage(`{"site":"site017.com","rank":17,"pageUrl":"http://site017.com/page/3","requests":[{"url":"http://cdn.example/ad.js","blocked":true}]}`),
	}
}

// TestPageFrameEncodeAllocs: encoding a page frame costs one allocation
// (the frame, sized exactly), and a second would multiply across every
// page of a crawl.
func TestPageFrameEncodeAllocs(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("encoding/json's sync.Pool drops items at random under the race detector")
			}
		}
	}
	msg := benchPage()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := wire.Encode(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("page frame encode: %.1f allocs, want <= 1", allocs)
	}
}

// BenchmarkFabricWireEncodePage / Decode: the page frame is the hot
// frame of the protocol — one per crawled page across the whole fleet —
// so its encode/decode cost bounds coordinator ingest throughput.
func BenchmarkFabricWireEncodePage(b *testing.B) {
	msg := benchPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricWireDecodePage(b *testing.B) {
	data, err := wire.Encode(benchPage())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricCrawlRoundTrip runs one complete distributed crawl per
// iteration — coordinator, one worker, 16 sites in 4 batches over real
// loopback TCP — measuring the end-to-end dispatch overhead (grants,
// heartbeats, page streaming, settles, commits) without real page
// loads.
func BenchmarkFabricCrawlRoundTrip(b *testing.B) {
	sites := testSites(16)
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		c, err := StartCoordinator("127.0.0.1:0", CoordinatorConfig{
			Crawl:     testCrawlConfig(len(sites)),
			Sites:     sites,
			BatchSize: 4,
			LeaseTTL:  2 * time.Second,
			StoreDir:  filepath.Join(dir, "store"),
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		done := make(chan error, 1)
		go func() {
			done <- RunWorker(ctx, WorkerConfig{
				Name: "bench", URL: c.URL(),
				NewRunner: func(cfg wire.CrawlConfig) (BatchRunner, error) {
					return &fakeRunner{pagesPerSite: cfg.PagesPerSite}, nil
				},
				Seed:      int64(i),
				DialRetry: dispatch.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
			})
		}()
		if err := c.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.ReportMetric(float64(len(sites)), "sites/op")
}
