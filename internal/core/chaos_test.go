package core

// Chaos soak: crawls under every faultnet profile must terminate with
// their accounting intact and no goroutine leak, the same fault seed
// must reproduce the same dataset byte for byte, and a run with the
// fault machinery present but disabled must match the plain pipeline
// exactly. This is the executable form of DESIGN.md §11.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/webgen"
)

// chaosCrawl runs one dispatched crawl under the named fault profile
// (empty = faults disabled) and returns the result plus the dataset's
// exact JSON serialization. A watchdog fails the test if the crawl does
// not terminate — a hang is precisely the bug class this suite hunts.
func chaosCrawl(t *testing.T, stateDir, profile string, faultSeed int64, publishers int) ([]byte, *CrawlResult) {
	t.Helper()
	type outcome struct {
		res *CrawlResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunCrawl(context.Background(), Options{
			Seed: 77, NumPublishers: publishers, Workers: 4, PagesPerSite: 2,
			FaultProfile: profile, FaultSeed: faultSeed,
			Dispatch: &DispatchOptions{StateDir: stateDir},
		}, CrawlSpec{Name: "chaos-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("crawl under profile %q failed outright: %v", profile, o.err)
		}
		var buf bytes.Buffer
		if err := o.res.Dataset.WriteJSON(&buf); err != nil {
			t.Fatalf("profile %q: dataset serialization: %v", profile, err)
		}
		return buf.Bytes(), o.res
	case <-time.After(3 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("crawl under profile %q hung\n%s", profile, buf[:runtime.Stack(buf, true)])
		return nil, nil
	}
}

// waitGoroutines polls until the goroutine count settles back to (near)
// the baseline, then reports a leak with full stacks if it never does.
func waitGoroutines(t *testing.T, baseline int, label string) {
	t.Helper()
	// Slack covers runtime helpers and netpoll goroutines that come and
	// go; a leaked per-conn or per-socket goroutine shows up per site
	// and blows well past it.
	const slack = 8
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("%s: goroutines %d -> %d (leak?)\n%s",
				label, baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosSoakAllProfiles: every registered profile terminates, keeps
// the site accounting consistent, and leaks no goroutines.
func TestChaosSoakAllProfiles(t *testing.T) {
	publishers := 8
	if testing.Short() {
		publishers = 4
	}
	for _, profile := range faultnet.Names() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			_, res := chaosCrawl(t, t.TempDir(), profile, 4242, publishers)

			// Degradation must stay accounted: every site either
			// completed or failed, nothing vanished or hung.
			p := res.Dispatch.Progress
			if p.Done+p.Failed != p.Total || p.Leased != 0 || p.Pending != 0 {
				t.Errorf("profile %q: unsettled queue: %+v", profile, p)
			}
			if got := res.Stats.Sites + res.Stats.SiteErrors; got == 0 {
				t.Errorf("profile %q: no site outcomes recorded", profile)
			}
			waitGoroutines(t, baseline, "profile "+profile)
		})
	}
}

// TestChaosSameFaultSeedByteIdentical: the determinism contract under
// active fault injection — same crawl seed, same fault seed, same
// profile, byte-identical dataset. "flaky" exercises every fault class
// at once (latency, cuts, resets, short writes), in both directions of
// each connection.
func TestChaosSameFaultSeedByteIdentical(t *testing.T) {
	profiles := []string{"flaky", "rst"}
	if testing.Short() {
		profiles = profiles[:1]
	}
	for _, profile := range profiles {
		a, resA := chaosCrawl(t, t.TempDir(), profile, 99, 6)
		b, resB := chaosCrawl(t, t.TempDir(), profile, 99, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("profile %q: same fault seed, different datasets (%d vs %d bytes)",
				profile, len(a), len(b))
		}
		if resA.Stats.Pages != resB.Stats.Pages || resA.Stats.PageErrors != resB.Stats.PageErrors {
			t.Errorf("profile %q: stats diverged: %+v vs %+v", profile, resA.Stats, resB.Stats)
		}
	}
}

// TestChaosDifferentFaultSeedsDiverge is the sanity inverse: fault
// injection actually responds to the seed. "flaky" is the right probe —
// its per-conn hit/reset decisions flip with the seed, where an
// always-cut profile like "rst" fails every page identically no matter
// where the cut lands. A few seeds guard against two of them happening
// to fault the same set of conns.
func TestChaosDifferentFaultSeedsDiverge(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		ds, _ := chaosCrawl(t, t.TempDir(), "flaky", seed, 6)
		distinct[string(ds)] = true
	}
	if len(distinct) < 2 {
		t.Error("flaky crawls with 4 different fault seeds all produced the same dataset — are faults injecting at all?")
	}
}

// TestChaosDisabledIsByteIdenticalToPlainRun: with FaultProfile empty
// the entire fault surface — browser config fields, the retry/backoff
// RNG, webserver options plumbing — must be inert: the dataset matches
// a run through the pre-faultnet entry points exactly.
func TestChaosDisabledIsByteIdenticalToPlainRun(t *testing.T) {
	faulted, _ := chaosCrawl(t, t.TempDir(), "", 4242, 8)

	// The control runs through the plain Options surface (no fault
	// fields at all), same crawl parameters.
	res, err := RunCrawl(context.Background(), Options{
		Seed: 77, NumPublishers: 8, Workers: 4, PagesPerSite: 2,
		Dispatch: &DispatchOptions{StateDir: t.TempDir()},
	}, CrawlSpec{Name: "chaos-crawl", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57})
	if err != nil {
		t.Fatal(err)
	}
	var control bytes.Buffer
	if err := res.Dataset.WriteJSON(&control); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(faulted, control.Bytes()) {
		t.Fatalf("disabled fault machinery perturbed the dataset (%d vs %d bytes)",
			len(faulted), control.Len())
	}
}

// TestChaosProfilesActuallyDegrade: under the all-cuts profile the
// crawl records real degradation (network errors or failed sites), not
// a silently pristine run — guarding against the injection quietly
// becoming a no-op.
func TestChaosProfilesActuallyDegrade(t *testing.T) {
	_, res := chaosCrawl(t, t.TempDir(), "rst", 7, 6)
	s := res.Stats
	if s.PageErrors == 0 && s.SiteErrors == 0 && res.Dispatch.Progress.Failed == 0 {
		t.Errorf("rst profile produced a pristine crawl: %+v", s)
	}
}

func init() {
	// Keep the soak honest if someone adds a profile without updating
	// the registry invariants above.
	if len(faultnet.Names()) == 0 {
		panic(fmt.Sprintf("faultnet registry empty: %v", faultnet.Names()))
	}
}
