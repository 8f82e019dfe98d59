// Package fabric is the distributed crawl dispatcher: a coordinator
// that shards a site list into deterministic job batches and serves
// them to a fleet of worker processes over our own WebSocket stack
// (internal/wsproto), speaking the versioned protocol defined in
// internal/fabric/wire.
//
// The fabric composes the repo's existing machinery rather than
// reinventing it:
//
//   - batch leasing, heartbeats, TTL reclaim, and retry budgets reuse
//     internal/dispatch's Queue with batches as the leased unit;
//   - everything durable is internal/dispatch's Ledger, of which the
//     coordinator is the second caller (dispatch.Run is the first): page
//     records stream back as pre-encoded spool lines and are appended
//     verbatim (Ledger.AppendLine), so the distributed spool is
//     byte-identical to a locally written one; progress is committed
//     after every settled batch, in the single-process checkpoint
//     format; and the final dataset comes from the ledger's one finalize
//     rule (store, live fold, or canonical merge — all
//     order-insensitive and byte-identical);
//   - coordinator↔worker links accept faultnet profiles, and workers
//     survive coordinator restarts via seeded dial retry.
//
// Determinism contract (DESIGN.md §12): a site's records are a pure
// function of (seed, site) — workers rebuild the same synthetic world
// from the Welcome frame's CrawlConfig — and the dataset derivation
// canonicalizes ordering and deduplicates re-crawled pages. Therefore
// the dataset is byte-identical across worker counts, arbitrary message
// interleavings, lease reclaims, and kill-and-resume of either side.
// The e2e tests prove this across real processes.
//
// Concurrency: the coordinator runs one session goroutine per worker
// connection plus an accept loop, and no timers of its own: a session
// waiting for a grant blocks in the queue's Lease, which also reclaims
// expired leases. All shared state (queue, ledger) is internally
// synchronized. Workers
// run the page pipeline with their own crawl parallelism and serialize
// protocol writes through the wsproto connection.
//
// Observability: the coordinator exports fabric.* metrics (workers,
// heartbeats, batches done, pages streamed, and a grant→complete
// round-trip histogram), and its batch queue the queue.* gauges (leases
// in flight, reclaims as requeues); all instrumentation is
// observe-only.
package fabric

import (
	"fmt"

	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/fabric/wire"
)

// BatchID names batch seq deterministically: stable zero-padded IDs
// sort in assignment order in checkpoints and logs.
func BatchID(seq int) string { return fmt.Sprintf("b%04d", seq) }

// MakeBatches shards the site list into deterministic job batches of
// at most size sites. Assignment is seeded: the site order is shuffled
// by a rand.Rand seeded with seed before chunking, so batch membership
// mixes ranks (a batch of only top-ranked, link-heavy sites would
// otherwise make the tail of the crawl lumpy), yet the same
// (sites, size, seed) triple always yields the same batches with the
// same stable IDs — which is what lets a restarted coordinator resume
// from batch-level checkpoints without persisting memberships.
func MakeBatches(sites []crawler.Site, size int, seed int64) []wire.Batch {
	if size <= 0 {
		size = 16
	}
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	rng := detrand.New(seed)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var out []wire.Batch
	for start := 0; start < len(order); start += size {
		end := start + size
		if end > len(order) {
			end = len(order)
		}
		b := wire.Batch{ID: BatchID(len(out)), Seq: len(out)}
		for _, idx := range order[start:end] {
			b.Sites = append(b.Sites, wire.Site{Domain: sites[idx].Domain, Rank: sites[idx].Rank})
		}
		out = append(out, b)
	}
	return out
}
