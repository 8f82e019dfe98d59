package dispatch

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/obs"
)

// The scaling gate compares a crawl with one eight times its size, in
// one process. The coordinator's half runs at twice the sites: below
// 16 × 128 = 2 048 sites the ledger's threshold, max(8, N/128), is
// smaller than a 16-site grant, so every grant commits and the grant,
// not the rule, sets the cadence.
var (
	localSizes       = [2]int{1000, 8000}
	coordinatorSizes = [2]int{2000, 16000}
)

// scaleCost is what dispatch spent on one crawl, per settled site.
type scaleCost struct {
	nsPerSite    float64
	statePerSite float64 // durable state bytes written: store.bytes
}

// TestDispatchScales is the host-independent scaling gate for dispatch:
// what the queue and the ledger cost per site must not grow with the
// crawl. It runs each of dispatch's two callers at two sizes eight times
// apart with no page plane behind them — dispatch.Run over a runner that
// emits one small line per site, and the coordinator's loop of 16-site
// grants settled through the ledger — and
// compares the two sizes on two terms:
//
//   - durable state bytes written per settled site — the store's
//     segments: the pages and the outcome rows, each written once, plus
//     a header per seal — stay within 1.25×. The count is deterministic
//     (one local worker; the coordinator loop is sequential), and
//     anything a commit rewrites in full, or a commit cadence that does
//     not grow with the crawl, makes it grow with N;
//   - the best-of-3 wall time per site, less the time spent committing,
//     does not grow more than 1.5×. A claim that walks every job makes it
//     grow with N. Commits are left to the bytes term: their fsyncs would
//     swamp the small crawl, which commits eight times as often per site.
//     This half skips under the race detector, whose overhead is not
//     uniform.
func TestDispatchScales(t *testing.T) {
	for _, path := range []struct {
		name  string
		sizes [2]int
		run   func(t *testing.T, n int) scaleCost
	}{
		{"local", localSizes, scaleLocal},
		{"coordinator", coordinatorSizes, scaleCoordinator},
	} {
		t.Run(path.name, func(t *testing.T) {
			reps := 3 // best of 3 for the timing half
			if raceEnabled() {
				reps = 1
			}
			// The sizes alternate, so a busy host slows both alike.
			var costs [2]scaleCost
			for rep := 0; rep < reps; rep++ {
				for i, n := range path.sizes {
					c := path.run(t, n)
					if rep == 0 || c.nsPerSite < costs[i].nsPerSite {
						costs[i].nsPerSite = c.nsPerSite
					}
					if rep > 0 && c.statePerSite != costs[i].statePerSite {
						t.Fatalf("%d sites: state bytes per site %.1f, then %.1f: not deterministic", n, costs[i].statePerSite, c.statePerSite)
					}
					costs[i].statePerSite = c.statePerSite
				}
			}
			for i, n := range path.sizes {
				t.Logf("%5d sites: %8.0f ns/site outside commits, %7.1f state B/site", n, costs[i].nsPerSite, costs[i].statePerSite)
			}
			small, large := costs[0], costs[1]
			if r := ratio(large.statePerSite, small.statePerSite); r > 1.25 {
				t.Errorf("state bytes per site differ %.2f× between %d and %d sites (limit 1.25×)", r, path.sizes[0], path.sizes[1])
			}
			if raceEnabled() {
				t.Log("timing half skipped under the race detector")
				return
			}
			if r := large.nsPerSite / small.nsPerSite; r > 1.5 {
				t.Errorf("ns per site at %d sites is %.2f× that at %d (limit 1.5×)", path.sizes[1], r, path.sizes[0])
			}
		})
	}
}

// ratio is the larger of a and b over the smaller.
func ratio(a, b float64) float64 { return max(a, b) / min(a, b) }

// scaleSites names n sites.
func scaleSites(n int) []crawler.Site {
	sites := make([]crawler.Site, n)
	for i := range sites {
		sites[i] = crawler.Site{Domain: fmt.Sprintf("site%05d.test", i), Rank: i + 1}
	}
	return sites
}

// measure runs crawl and charges its wall time outside commits and the
// durable state bytes it wrote to its n sites.
func measure(t *testing.T, n int, crawl func()) scaleCost {
	t.Helper()
	bytes0, committing0 := obs.StoreBytes.Value(), obs.StageCheckpoint.Sum()
	start := time.Now()
	crawl()
	elapsed := time.Since(start) - (obs.StageCheckpoint.Sum() - committing0)
	return scaleCost{
		nsPerSite:    float64(elapsed.Nanoseconds()) / float64(n),
		statePerSite: float64(obs.StoreBytes.Value()-bytes0) / float64(n),
	}
}

// scaleLocal is one dispatch.Run over n sites with a runner that emits
// one small page record per site.
func scaleLocal(t *testing.T, n int) scaleCost {
	dir := t.TempDir()
	cfg := Config{
		Store:   colstore.Config{Dir: filepath.Join(dir, "store"), Meta: analysis.DatasetMeta{Name: "scale"}, Seed: 1, PagesPerSite: 1},
		Sites:   scaleSites(n),
		Workers: 1,
		RunGrant: func(_ context.Context, sites []crawler.Site, emit func(string, *analysis.PageRecord) error) (map[string]string, error) {
			for _, s := range sites {
				if err := emit(s.Domain, rec(s.Domain, "http://"+s.Domain+"/")); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	}
	var res *Result
	cost := measure(t, n, func() {
		var err error
		if res, err = Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if p := res.Progress; p.Done != n {
		t.Fatalf("local crawl settled %+v, want %d done", p, n)
	}
	return cost
}

// scaleCoordinator is the coordinator's dispatch loop over n sites: lease
// a grant of up to 16 sites, append one page record per site and settle
// the grant — what fabric.Coordinator does per grant, without the wire.
func scaleCoordinator(t *testing.T, n int) scaleCost {
	dir := t.TempDir()
	sites := scaleSites(n)
	q := NewQueue(sites, QueueConfig{Seed: 1})
	l, err := OpenLedger(colstore.Config{
		Meta:         analysis.DatasetMeta{Name: "scale"},
		Seed:         1,
		PagesPerSite: 1,
		TotalSites:   n,
		Dir:          filepath.Join(dir, "store"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cost := measure(t, n, func() {
		for {
			g, ok := q.Grant(context.Background(), 16, l)
			if !ok {
				break
			}
			for _, s := range g.Sites() {
				if err := l.Append(s.Domain, rec(s.Domain, "http://"+s.Domain+"/")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := g.Settle(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if p := q.Progress(); p.Done != n {
		t.Fatalf("coordinator loop settled %+v, want %d done", p, n)
	}
	return cost
}

// raceEnabled reports whether the test binary runs under the race
// detector.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
