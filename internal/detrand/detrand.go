// Package detrand builds seeded *rand.Rand values whose stream is
// exactly math/rand's for the same seed, without paying math/rand's
// up-front seeding.
//
// rand.NewSource(seed) fills a 607-word additive lagged-Fibonacci
// register (≈11 µs, 5.4 KB) before the first draw. The synthetic web
// derives a fresh generator per namespaced key and draws a handful of
// numbers from each, so nearly all of that register is never read.
//
// The register is seeded from the Lehmer generator x·48271 mod (2³¹−1):
// element i is three consecutive Lehmer outputs, starting at step
// 21+3i, XORed with a fixed "cooked" constant. A Lehmer output at step
// n is seed·48271ⁿ, so any element is computable on its own by one
// multiplication with a precomputed power and two further steps. Draw k
// (1-based) returns vec[334−k] + vec[607−k] and stores it at 334−k; for
// k ≤ 273 (the generator's lag) neither index has been written yet, so
// those draws need only two on-demand elements and no register at all.
// At draw 274 the source hands over to a real rand.NewSource(seed)
// advanced past the draws already made.
//
// The cooked constants are unexported in math/rand; they are recovered
// once at start-up from the first 607 outputs of one reference source.
// Both that and the stream identity lean on the Go 1 compatibility
// promise, which freezes the output of a seeded math/rand source.
package detrand

import "math/rand"

const (
	regLen   = 607 // register length (math/rand rngLen)
	regTap   = 273 // lag (math/rand rngTap)
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	seedSkip = 21 // Lehmer steps taken before element 0's first word
)

// New returns a generator whose output equals
// rand.New(rand.NewSource(seed)) draw for draw.
func New(seed int64) *rand.Rand {
	return rand.New(&source{seed: normalize(seed)})
}

// source is a rand.Source64. While full is nil it has made drawn ≤ 273
// draws, all computed on demand from seed.
type source struct {
	seed  uint64 // normalised: in [1, 2³¹−2]
	drawn int
	full  rand.Source64
}

func (s *source) Seed(seed int64) {
	*s = source{seed: normalize(seed)}
}

func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

func (s *source) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	if s.drawn == regTap {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for i := 0; i < regTap; i++ {
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.drawn++
	feed := regLen - regTap - s.drawn
	return uint64(element(s.seed, feed) + element(s.seed, feed+regTap))
}

// normalize maps a seed onto the Lehmer state math/rand starts from.
func normalize(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// element returns register element i as rand.NewSource(seed) would
// have initialised it.
func element(seed uint64, i int) int64 {
	return lehmerWords(seed*uint64(tables.pow[i])%lehmerM) ^ tables.cooked[i]
}

// lehmerWords packs x and its two Lehmer successors the way math/rand
// packs one register element (before the cooked XOR).
func lehmerWords(x uint64) int64 {
	y := x * lehmerA % lehmerM
	z := y * lehmerA % lehmerM
	return int64(x<<40 ^ y<<20 ^ z)
}

// tables holds pow[i] = 48271^(21+3i) mod (2³¹−1) and math/rand's
// cooked constants. Filled once at start-up, read-only afterwards.
var tables = buildTables()

type seedTables struct {
	pow    [regLen]uint32
	cooked [regLen]int64
}

func buildTables() *seedTables {
	t := new(seedTables)
	p := uint64(1)
	for n := 0; n < seedSkip; n++ {
		p = p * lehmerA % lehmerM
	}
	for i := range t.pow {
		t.pow[i] = uint32(p)
		p = p * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}

	// Recover the initial register of one reference source from its
	// outputs. Draw k adds the element at the feed index (334−k mod 607)
	// to the one 273 slots above it. From draw 274 on, that second
	// operand is draw k−273's own output, and the feed element is still
	// untouched until the feed pointer wraps after 607 draws — so
	// out[k] − out[k−273] yields elements 60…0 then 606…334, and the
	// first 273 draws then give up the rest.
	const refSeed = 1
	ref := rand.NewSource(refSeed).(rand.Source64)
	var out [regLen + 1]int64
	for k := 1; k <= regLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var vec [regLen]int64
	for k := regTap + 1; k <= regLen; k++ {
		vec[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		feed := regLen - regTap - k
		vec[feed] = out[k] - vec[feed+regTap]
	}
	for i := range vec {
		t.cooked[i] = vec[i] ^ lehmerWords(refSeed*uint64(t.pow[i])%lehmerM)
	}
	return t
}
