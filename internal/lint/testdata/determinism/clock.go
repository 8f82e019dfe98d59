// Fixture for the determinism analyzer: linted as package path
// repro/internal/webgen (deterministic) and again as
// repro/internal/dispatch (not deterministic, zero findings expected).
package webgen

import (
	"math/rand"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want "time.Now in deterministic package"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since in deterministic package"
}

func globalDraw() int {
	return rand.Intn(6) // want "global rand.Intn in deterministic package"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global rand.Shuffle in deterministic package"
}

func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // want "rand.NewSource in repro/internal/webgen seeds a 607-word register up front"
	return rng.Intn(6)
}

func typeRefsAreFine(rng *rand.Rand, d time.Duration) *rand.Rand {
	_ = d
	return rng
}

func justifiedFallback() time.Time {
	//lint:allow determinism fixture: documented intentional wall-clock read
	return time.Now()
}

func trailingPragma() time.Time {
	return time.Now() //lint:allow determinism fixture: trailing-comment form
}
