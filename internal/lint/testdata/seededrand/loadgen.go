// Fixture for the determinism analyzer's seeded-content tier: linted
// as package path repro/internal/loadgen, where wall-clock reads are
// legal (latency is the package's output) but global math/rand draws
// remain banned — content must derive from explicit seeds.
package loadgen

import (
	"math/rand"
	"time"
)

func latencyMeasurement() time.Duration {
	t0 := time.Now() // legal here: timing is the measurement
	return time.Since(t0)
}

func unseededContent() int {
	return rand.Intn(256) // want "global rand.Intn in seeded-content package"
}

func unseededKey(key []byte) {
	rand.Read(key) // want "global rand.Read in seeded-content package"
}

// An explicit seed is the sanctioned pattern, but loadgen builds one
// generator per connection: the on-demand-seed rule applies too.
func seededContent(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // want "rand.NewSource in repro/internal/loadgen seeds a 607-word register up front"
	return rng.Intn(256)
}

func justifiedDraw() int {
	//lint:allow determinism fixture: documented intentional global draw
	return rand.Int()
}
