// Fixture for the lockguard analyzer: fields annotated "guarded by
// <mu>" must only be accessed with that mutex held in the same
// function.
package fix

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	s  string
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) race() int {
	return c.n // want "access to counter.n without holding c.mu"
}

func (c *counter) unlockTooSoon() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want "without holding c.mu"
}

func (c *counter) unguardedIsFree() string {
	return c.s
}

func newCounter() *counter {
	return &counter{n: 7} // composite-literal construction is exempt
}

type stale struct {
	x int // guarded by missing // want "names no field of stale"
}
