// Package faultnet is a composable, seeded-deterministic fault-injection
// middleware for net.Conn and for whole fetch exchanges. It models the network
// pathology the paper's live-web crawl met constantly and our synthetic
// loopback web never produces on its own: added latency and jitter,
// bandwidth caps, torn and short writes, byte truncation, mid-frame
// RST-style aborts, and handshake stalls (slow-loris peers).
//
// Determinism contract (DESIGN.md §11): every random choice — whether a
// connection is truncated, at which byte, whether it stalls — is drawn
// from an explicitly seeded *rand.Rand at wrap time into an immutable
// per-connection schedule. The same seed therefore reproduces the same
// fault schedule, which is what lets the chaos soak assert that two
// crawls with the same fault seed produce byte-identical datasets.
// faultnet perturbs *timing* and *byte counts* only; it never rewrites
// payload bytes, so the bytes an endpoint does observe are always a
// prefix of the genuine stream.
//
// A crawl wires faults in at one point, the client, per logical
// connection: the caller derives each connection's seed from a stable
// identity (the browser keys it to a fault seed per crawl and attempt
// of a site, its per-site seed, and the connection's number in its
// sequence of fetches and dials), so schedules are independent of goroutine scheduling, of the
// transport and of the crawl's role. A socket's conn is wrapped by
// WrapConn; a fetch, which hands its caller a whole body or none, takes
// the same schedule through Exchange. There is no server-side wiring:
// a schedule drawn per accepted conn follows accept order, which under
// concurrency is not a stable identity. A wrapped conn has a read and a
// write budget, so wrapping one end of a link faults both directions
// (the fabric soak wraps its workers' dials this way).
//
// The package is on the wslint determinism allowlist: it reads the wall
// clock only for I/O deadline arithmetic (under justified pragmas) and
// never lets timing feed back into the bytes it delivers.
package faultnet

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// Injected fault errors. Both satisfy errors.Is against themselves and
// surface to callers exactly like their kernel-level counterparts: a
// truncation as an unexpected EOF mid-stream, a reset as a hard
// connection error.
var (
	// ErrInjectedReset reports a schedule-triggered RST-style abort.
	ErrInjectedReset = errors.New("faultnet: injected connection reset")
	// ErrInjectedCut reports a schedule-triggered write truncation: the
	// connection accepted a byte budget and the budget is spent.
	ErrInjectedCut = errors.New("faultnet: injected write cut")
)

// Profile describes one fault mix. The zero value injects nothing.
// Probabilities are in [0,1]; byte counts bound the uniform draw for
// the truncation point; durations are applied as written (profiles
// shipped in the registry use values small enough to stay far from the
// pipeline's timeouts, so latency-class faults never flip outcomes).
type Profile struct {
	// Name identifies the profile in flags, metrics, and docs.
	Name string

	// Latency is a fixed delay added to every read and write.
	Latency time.Duration
	// Jitter adds a per-connection uniform extra in [0, Jitter).
	Jitter time.Duration
	// Bandwidth caps throughput in bytes/second (0 = unlimited),
	// enforced by pacing sleeps after each transfer.
	Bandwidth int64

	// TornWrites, when > 0, splits every write into chunks of at most
	// this many bytes, each written separately — exercising readers
	// against arbitrary TCP segmentation.
	TornWrites int

	// TruncateProb is the probability a connection gets a byte budget;
	// once the budget is spent, reads return EOF and writes fail. The
	// budget is drawn uniformly from [TruncateMin, TruncateMax] and
	// applies to each direction independently. TruncateMax must be > 0
	// for truncation to arm.
	TruncateProb float64
	TruncateMin  int64
	TruncateMax  int64
	// ResetProb is the probability (given a truncated connection) that
	// exhausting the budget hard-closes the transport RST-style instead
	// of a clean cut.
	ResetProb float64
	// ShortWriteProb is the probability (given a truncated connection)
	// that the final write delivers a partial chunk before failing,
	// rather than being cut on a clean boundary.
	ShortWriteProb float64

	// StallProb is the probability a connection withholds its first I/O
	// for Stall — the slow-loris pattern that wedges handshake readers
	// with no deadline. Stall must be > 0 for stalls to arm.
	StallProb float64
	Stall     time.Duration
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.Latency > 0 || p.Jitter > 0 || p.Bandwidth > 0 ||
		p.TornWrites > 0 || (p.TruncateMax > 0 && p.TruncateProb > 0) ||
		(p.Stall > 0 && p.StallProb > 0)
}

// schedule is the immutable per-connection fault plan, fully drawn at
// wrap time so no randomness remains on the I/O path.
type schedule struct {
	latency   time.Duration
	stall     time.Duration
	nsPerByte int64 // bandwidth pacing; 0 = unlimited
	tornMax   int
	readCut   int64 // remaining read budget; -1 = unlimited
	writeCut  int64 // remaining write budget; -1 = unlimited
	reset     bool  // cut manifests as a hard close
	short     bool  // final write delivers a partial chunk
}

// schedule draws a connection's plan from rng. The draw sequence is
// fixed by the profile's constants (never by earlier draw outcomes), so
// the k-th connection of a given profile always consumes the same
// number of draws — the property that keeps schedule sequences aligned
// across runs.
func (p Profile) schedule(rng *rand.Rand) schedule {
	s := schedule{
		latency: p.Latency,
		tornMax: p.TornWrites,
		readCut: -1, writeCut: -1,
	}
	if p.Bandwidth > 0 {
		s.nsPerByte = int64(time.Second) / p.Bandwidth
	}
	if p.Jitter > 0 {
		s.latency += time.Duration(rng.Int63n(int64(p.Jitter)))
	}
	if p.Stall > 0 && rng.Float64() < p.StallProb {
		s.stall = p.Stall
	}
	if p.TruncateMax > 0 {
		cut := p.TruncateMin
		if p.TruncateMax > p.TruncateMin {
			cut += rng.Int63n(p.TruncateMax - p.TruncateMin + 1)
		}
		if cut < 1 {
			cut = 1
		}
		hit := rng.Float64() < p.TruncateProb
		reset := rng.Float64() < p.ResetProb
		short := rng.Float64() < p.ShortWriteProb
		if hit {
			s.readCut, s.writeCut = cut, cut
			s.reset = reset
			s.short = short
		}
	}
	return s
}

// DeriveSeed mixes a base seed with salts into a per-connection seed,
// FNV-1a over the values — the same derivation style the crawler uses
// for per-site seeds, so fault schedules can be keyed to stable logical
// identities instead of accept order.
func DeriveSeed(base int64, salts ...int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	put(base)
	for _, s := range salts {
		put(s)
	}
	return int64(h.Sum64())
}

// registry holds the named profiles, ordered for stable Names output.
// Durations and byte budgets are sized for the synthetic loopback web:
// visible under instrumentation, far from the pipeline's timeouts.
var registry = []Profile{
	{
		// slow: high-latency, low-bandwidth path. Timing-only — no
		// connection ever fails, everything just drags.
		Name: "slow", Latency: 2 * time.Millisecond,
		Jitter: 3 * time.Millisecond, Bandwidth: 1 << 18,
	},
	{
		// torn: every write arrives in dribbles of at most 7 bytes,
		// shredding frame and header boundaries.
		Name: "torn", Latency: 200 * time.Microsecond, TornWrites: 7,
	},
	{
		// flaky: a minority of connections get a byte budget and die
		// mid-stream — half as clean cuts, half as resets, a quarter
		// with a short final write. Budgets undercut the synthetic
		// web's larger transfers (pages, socket sessions); on its small
		// ones (scripts, images, beacons) they arm without ever being
		// spent.
		Name: "flaky", Latency: 200 * time.Microsecond,
		TruncateProb: 0.4, TruncateMin: 96, TruncateMax: 2048,
		ResetProb: 0.5, ShortWriteProb: 0.25,
	},
	{
		// rst: every connection is cut early and aborted hard —
		// mid-frame RSTs everywhere. Almost nothing survives.
		Name: "rst", TruncateProb: 1, TruncateMin: 64, TruncateMax: 2048,
		ResetProb: 1,
	},
	{
		// stall: half the connections sit silent before their first
		// byte — the slow-loris shape that wedges deadline-less
		// handshake readers.
		Name: "stall", StallProb: 0.5, Stall: 120 * time.Millisecond,
	},
}

// Names returns the registered profile names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range registry {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
