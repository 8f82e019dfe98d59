package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// TestFlakyFaultsEachConnection holds the flaky profile to what it
// documents: each connection of a crawl — fetch or socket — draws its
// own schedule, so over fault seeds 1–20 every seed arms a byte budget
// on a TruncateProb share of its connections, within the binomial
// spread of that many draws, and loses some sites but never none or
// all. A schedule drawn once and shared by every connection arms all of
// them or none, and a crawl then loses every site or none.
//
// The band is TruncateProb ± 5σ, σ = √(p(1−p)/n) for a seed's n
// connections (n ≈ 1 700, so ± 0.06): one attempt per site, so no
// connection is drawn twice. Each connection's seed derives from its
// own identity, so the draws are independent and the band fails a
// sound draw with odds of about 10⁻⁵ over the twenty seeds.
func TestFlakyFaultsEachConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 40 publishers twenty times")
	}
	profile, _ := faultnet.ByName("flaky")
	p := profile.TruncateProb
	for seed := int64(1); seed <= 20; seed++ {
		before := obs.Default.Snapshot()
		res, err := RunCrawl(context.Background(), Options{
			Seed: 20170419, NumPublishers: 40, Workers: 4, PagesPerSite: 3,
			FaultProfile: "flaky", FaultSeed: seed,
			Dispatch: &DispatchOptions{StateDir: t.TempDir(), MaxAttempts: 1},
		}, DefaultCrawls()[0])
		if err != nil {
			t.Fatal(err)
		}
		after := obs.Default.Snapshot()
		delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
		conns, armed := delta(obs.MFaultConns), delta(obs.MFaultArmed)
		faulted := delta(obs.MFaultCuts) + delta(obs.MFaultResets)
		prog := res.Dispatch.Progress
		share := float64(armed) / float64(conns)
		band := 5 * math.Sqrt(p*(1-p)/float64(conns))
		t.Logf("fault seed %2d: %4d of %4d connections armed (%.3f), %3d cut, %2d of %d sites lost",
			seed, armed, conns, share, faulted, prog.Failed, prog.Total)
		if conns < 500 || math.Abs(share-p) > band {
			t.Errorf("fault seed %d: %d of %d connections armed (%.3f), want %.2f ± %.3f",
				seed, armed, conns, share, p, band)
		}
		if faulted == 0 {
			t.Errorf("fault seed %d: no armed budget was spent", seed)
		}
		if prog.Failed == 0 || prog.Failed == prog.Total {
			t.Errorf("fault seed %d: %d of %d sites lost, want some but not all", seed, prog.Failed, prog.Total)
		}
	}
}

// TestRetriesDrawFreshFaults: a site's fault schedules are keyed on its
// attempt, so a retry meets fresh faults instead of replaying the ones
// that failed it, and a retry budget wins back sites. Over fault seeds
// 1–5 under flaky, crawls with three attempts per site must lose
// strictly fewer sites in total than crawls with one. The first attempt
// draws the same schedules either way, so the one-attempt crawls are
// the fault seed's first-attempt losses.
func TestRetriesDrawFreshFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 40 publishers ten times")
	}
	lost := func(seed int64, attempts int) int {
		res, err := RunCrawl(context.Background(), Options{
			Seed: 20170419, NumPublishers: 40, Workers: 4, PagesPerSite: 3,
			FaultProfile: "flaky", FaultSeed: seed,
			Dispatch: &DispatchOptions{StateDir: t.TempDir(), MaxAttempts: attempts},
		}, DefaultCrawls()[0])
		if err != nil {
			t.Fatal(err)
		}
		return res.Dispatch.Progress.Failed
	}
	var once, thrice int
	for seed := int64(1); seed <= 5; seed++ {
		a, b := lost(seed, 1), lost(seed, 3)
		t.Logf("fault seed %d: %d sites lost with one attempt, %d with three", seed, a, b)
		once += a
		thrice += b
	}
	if thrice >= once {
		t.Errorf("three attempts lost %d sites over fault seeds 1-5, one attempt %d: retries replay their faults", thrice, once)
	}
}
