// Fixture for the determinism analyzer's on-demand-seed rule: linted
// as package path repro/internal/crawler, where a generator is built
// per site and rand.NewSource's up-front 607-word seeding is the cost
// detrand.New exists to avoid; and again as repro/internal/dispatch
// (one generator per run: zero findings expected). perSite is the
// shape the rule caught in product code when it was introduced: a
// per-site generator seeded through rand.NewSource on the crawl path.
package crawler

import (
	"math/rand"
	"time"
)

func perSite(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "rand.NewSource in repro/internal/crawler seeds a 607-word register up front; use detrand.New"
}

func bareSource(seed int64) rand.Source {
	return rand.NewSource(seed) // want "use detrand.New"
}

// Outside the deterministic tiers the clock and global draws are not
// this rule's business.
func clockAndGlobalDrawsPass() int64 {
	return time.Now().UnixNano() + rand.Int63()
}

func wrappingAnInjectedSourceIsFine(src rand.Source) *rand.Rand {
	return rand.New(src)
}

func interopFallback() *rand.Rand {
	//lint:allow determinism fixture: documented time-seeded fallback
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
