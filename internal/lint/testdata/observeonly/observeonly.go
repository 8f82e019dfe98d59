// Fixture for the observeonly analyzer: linted as a library package
// path (repro/internal/fix) and again as a cmd path (zero findings).
package fix

import "repro/internal/obs"

var pages = obs.Default.Counter("crawl.pages")

func record() {
	pages.Inc() // recording: legal
	obs.Default.Gauge("queue.depth").Set(3)
	obs.Default.GaugeFunc("queue.live", func() int64 { return 0 })
}

func leakPackageVar() int64 {
	return pages.Value() // want "reads metric state in library package"
}

func leakRegistrySnapshot() int {
	snap := obs.Default.Snapshot() // want "reads metric state in library package"
	return len(snap.Counters)
}

func leakChained() int64 {
	return obs.Default.Counter("x").Value() // want "reads metric state in library package"
}

func leakLocalVar() int64 {
	c := obs.Default.Counter("y")
	return c.Value() // want "reads metric state in library package"
}

func leakHistogram() int64 {
	h := obs.Default.Histogram("stage.fetch")
	return h.Stat().Count // want "reads metric state in library package"
}

type unrelated struct{}

func (unrelated) Value() int64 { return 0 }

func unrelatedValueIsFine(u unrelated) int64 {
	return u.Value() // not obs-rooted: legal
}

func allowedByPragma() int64 {
	//lint:allow observeonly fixture: display-only read, result not used for control flow
	return pages.Value()
}
