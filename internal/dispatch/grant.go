package dispatch

import (
	"context"
	"errors"
	"time"

	"repro/internal/colstore"
	"repro/internal/crawler"
)

// Grant is the site leases one claim step took for one holder — a
// worker loop of Run, or a fabric session — heartbeat together and
// settled site by site. It is the one settle path of both roles: every
// settle is reported to the ledger's commit rule (Ledger.Settled).
type Grant struct {
	// At is when the grant was leased.
	At     time.Time
	leases []*Lease
	ledger *Ledger
}

// Grant blocks until up to n sites are leased (at least one) and hands
// them out as one grant whose settles ledger commits. ok=false means the
// queue is drained or ctx is done. The outcome rows of the leases its
// claim steps reclaimed go to the ledger first, as a settle's do, so an
// attempt that a lease expiry spent stays spent across a resume; a
// commit they make due that fails is retried by the next one.
func (q *Queue) Grant(ctx context.Context, n int, ledger *Ledger) (*Grant, bool) {
	ls, expired, ok := q.lease(ctx, n)
	if len(expired) > 0 {
		_ = ledger.Settled(expired)
	}
	if !ok {
		return nil, false
	}
	return &Grant{At: q.now(), leases: ls, ledger: ledger}, true
}

// Sites lists the granted sites in site-list order, each with its
// lease's attempt number.
func (g *Grant) Sites() []crawler.Site {
	sites := make([]crawler.Site, len(g.leases))
	for i, l := range g.leases {
		sites[i] = l.Site
		sites[i].Attempt = l.Attempt
	}
	return sites
}

// Heartbeat extends every lease of the grant. The grant is valid only
// while each lease is; once one was reclaimed the holder must abandon
// the grant, so the rest are released and Heartbeat reports false.
func (g *Grant) Heartbeat() bool {
	if g.each((*Lease).Heartbeat) == len(g.leases) {
		return true
	}
	g.Release()
	return false
}

// Settle ends the grant's attempt. With err == nil every site completes
// except the ones failed names, which fail with their message and retry
// under the retry policy; a cancellation releases every site without
// spending its attempt; any other err fails them all. Each settled site's
// outcome row goes to the ledger after the site's pages. It returns how
// many leases it settled (stale ones are ignored; a nil grant settles
// nothing) and the error of the commit the settle made due, if that
// failed — the next due settle retries it.
func (g *Grant) Settle(failed map[string]string, err error) (settled int, commitErr error) {
	switch {
	case g == nil:
		return 0, nil
	case released(err):
		g.Release()
		return 0, nil
	}
	var rows []colstore.Outcome
	for _, l := range g.leases {
		failure := err
		if msg, ok := failed[l.Site.Domain]; ok && err == nil {
			failure = errors.New(msg)
		}
		if row, ok := l.settle(failure); ok {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	return len(rows), g.ledger.Settled(rows)
}

// Release returns every site of the grant to the queue without spending
// its attempt: the holder was cancelled or is gone.
func (g *Grant) Release() { g.each((*Lease).Release) }

// each applies op to every lease of the grant and counts the leases it
// still owned.
func (g *Grant) each(op func(*Lease) bool) (live int) {
	for _, l := range g.leases {
		if op(l) {
			live++
		}
	}
	return live
}
