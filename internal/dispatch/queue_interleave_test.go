package dispatch

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestQueueInterleavings drives two lease holders over three jobs
// through every sequence of queue events up to a bounded depth, on the
// injected clock, and checks the queue's contract after each event:
//
//   - a job that turns terminal stays terminal in the same state, so
//     every job becomes terminal exactly once;
//   - no lease is granted once Drained has closed;
//   - Drained is closed if and only if every job is terminal;
//   - the leases of one claim (a holder claims one or two, as a local
//     worker and a fabric grant do) are distinct non-terminal jobs in seq
//     order, none held live by anyone;
//   - a heartbeat or settle of one lease changes no other job's record,
//     so a grant's sibling leases never see each other's outcome;
//   - a settle or heartbeat on a stale lease returns false, and on a
//     live one true — "stale" judged by a model of the lease rule that
//     is independent of the queue's tokens;
//   - a resume (RestoreJobs of ExportJobs into a fresh queue) preserves
//     done, failed and attempt counts.
//
// The clock advances one tick per event; a late heartbeat first jumps it
// a whole TTL. Each event runs on a fork of the world it extends.
// Sequences that reach a state already explored with as much depth left
// are cut, so the bound reaches well past the six events the shortest
// drain takes.
func TestQueueInterleavings(t *testing.T) {
	const depth = 11
	seen := map[string]int{}
	var sequences, drainedStates, staleSettles, pairClaims int
	var walk func(w *ilWorld, trace []ilEvent)
	walk = func(w *ilWorld, trace []ilEvent) {
		sequences++
		left := depth - len(trace)
		key := w.key()
		if d, ok := seen[key]; ok && d >= left {
			return
		}
		if _, ok := seen[key]; !ok && isClosed(w.q.Drained()) {
			drainedStates++
		}
		seen[key] = left
		staleSettles += w.staleSettles
		pairClaims += w.pairClaims
		if left == 0 {
			return
		}
		for _, e := range w.enabled() {
			next := w.fork()
			trace := append(trace[:len(trace):len(trace)], e)
			if err := next.apply(e); err != nil {
				t.Fatalf("%v\nafter %s", err, ilTrace(trace))
			}
			walk(next, trace)
		}
	}
	walk(newILWorld(), nil)
	t.Logf("%d sequences, %d distinct states (%d drained), %d stale settles refused, %d two-lease claims",
		sequences, len(seen), drainedStates, staleSettles, pairClaims)
	if drainedStates == 0 || staleSettles == 0 || pairClaims == 0 {
		t.Error("the bound never reached a drained queue, a stale settle or a two-lease claim")
	}
}

const (
	ilTick = time.Second
	ilTTL  = 3 * ilTick
)

type ilKind int

const (
	ilClaim  ilKind = iota
	ilClaim2        // one claim step for two leases, as a fabric grant takes
	ilHeartbeat
	ilLate // heartbeat after the clock has jumped a whole TTL
	ilComplete
	ilFail
	ilRelease
	ilResume
)

var ilKindNames = [...]string{"claim", "claim-2", "heartbeat", "late-heartbeat", "complete", "fail", "release", "resume"}

type ilEvent struct {
	kind   ilKind
	holder int
	lease  int // index into the holder's leases, for heartbeats and settles
}

func ilTrace(seq []ilEvent) string {
	parts := make([]string, len(seq))
	for i, e := range seq {
		parts[i] = ilKindNames[e.kind]
		switch e.kind {
		case ilResume:
		case ilClaim, ilClaim2:
			parts[i] += fmt.Sprintf("(h%d)", e.holder)
		default:
			parts[i] += fmt.Sprintf("(h%d.%d)", e.holder, e.lease)
		}
	}
	return strings.Join(parts, " → ")
}

// ilHeld is one lease a holder holds, with the model's verdict on it.
type ilHeld struct {
	l      *Lease
	live   bool      // model: neither settled nor reclaimed
	expiry time.Time // model: when it lapses
}

// ilWorld is one replayed history: the queue, what each holder holds,
// and the model's verdict on whether each lease still owns its job.
type ilWorld struct {
	clk     *fakeClock
	cfg     QueueConfig
	q       *Queue
	held    [2][]ilHeld
	resumed bool

	staleSettles, pairClaims int
}

func newILWorld() *ilWorld {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := QueueConfig{
		LeaseTTL: ilTTL, Seed: 1, Now: clk.now,
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: ilTick, MaxDelay: ilTick, JitterFrac: -1},
	}
	return &ilWorld{clk: clk, cfg: cfg, q: NewQueue(testSites(3), cfg)}
}

// fork deep-copies the world — the queue's jobs and every held lease,
// rebound to the copy — so each event extends one history without
// replaying it. The jitter source is shared: the policy draws none.
func (w *ilWorld) fork() *ilWorld {
	clk := *w.clk
	f := &ilWorld{clk: &clk, cfg: w.cfg, resumed: w.resumed}
	f.cfg.Now = clk.now
	p := w.q
	q := &Queue{
		jobs: make(map[string]*job, len(p.jobs)), order: p.order,
		leaseTTL: p.leaseTTL, policy: p.policy, rng: p.rng, now: clk.now,
		signal: make(chan struct{}), drained: make(chan struct{}), terminal: p.terminal,
		tokens: p.tokens, retries: p.retries, requeues: p.requeues,
	}
	for dom, j := range p.jobs {
		c := *j
		q.jobs[dom] = &c
	}
	if isClosed(p.drained) {
		close(q.drained)
	}
	f.q = q
	for h, held := range w.held {
		for _, hl := range held {
			l := *hl.l
			l.q = q
			hl.l = &l
			f.held[h] = append(f.held[h], hl)
		}
	}
	return f
}

// enabled lists the events possible next: a holder with nothing claims
// (h0 one or two leases, like a fabric grant; h1 one, like a local
// worker), a holder with leases works any one of them; a resume may
// happen once.
func (w *ilWorld) enabled() []ilEvent {
	var out []ilEvent
	for h, held := range w.held {
		if len(held) == 0 {
			out = append(out, ilEvent{kind: ilClaim, holder: h})
			if h == 0 {
				out = append(out, ilEvent{kind: ilClaim2, holder: h})
			}
			continue
		}
		for i := range held {
			for k := ilHeartbeat; k <= ilRelease; k++ {
				out = append(out, ilEvent{k, h, i})
			}
		}
	}
	if !w.resumed {
		out = append(out, ilEvent{kind: ilResume})
	}
	return out
}

// apply runs one event and checks every invariant after it.
func (w *ilWorld) apply(e ilEvent) error {
	before := w.q.ExportJobs()
	w.clk.advance(ilTick)
	h := e.holder
	switch e.kind {
	case ilClaim, ilClaim2:
		if err := w.claim(h, 1+int(e.kind-ilClaim), before); err != nil {
			return err
		}
	case ilResume:
		recs := w.q.ExportJobs()
		q := NewQueue(testSites(3), w.cfg)
		q.RestoreJobs(recs)
		for i, got := range q.ExportJobs() {
			want := recs[i]
			if got.State != want.State || got.Attempts != want.Attempts || (want.State == JobFailed && got.LastErr != want.LastErr) {
				return fmt.Errorf("resume turned %+v into %+v", want, got)
			}
		}
		w.q, w.held, w.resumed = q, [2][]ilHeld{}, true
	default:
		if e.kind == ilLate {
			w.clk.advance(ilTTL)
		}
		hl := &w.held[h][e.lease]
		var ok bool
		switch e.kind {
		case ilHeartbeat, ilLate:
			ok = hl.l.Heartbeat()
		case ilComplete:
			ok = hl.l.Complete()
		case ilFail:
			ok = hl.l.Fail(errors.New("flaky"))
		case ilRelease:
			ok = hl.l.Release()
		}
		if ok != hl.live {
			return fmt.Errorf("%s on a lease the model calls live=%v returned %v", ilKindNames[e.kind], hl.live, ok)
		}
		if !hl.live {
			w.staleSettles++
		}
		if ok && (e.kind == ilHeartbeat || e.kind == ilLate) {
			hl.expiry = w.clk.t.Add(ilTTL)
		} else {
			w.held[h] = append(w.held[h][:e.lease:e.lease], w.held[h][e.lease+1:]...)
		}
		for i, rec := range w.q.ExportJobs() {
			if rec.Domain != before[i].Domain || (rec != before[i] && rec.Domain != hl.l.Site.Domain) {
				return fmt.Errorf("%s on %s changed %+v into %+v", ilKindNames[e.kind], hl.l.Site.Domain, before[i], rec)
			}
		}
	}

	after := w.q.ExportJobs()
	allTerminal := true
	for i, rec := range after {
		if s := before[i].State; (s == JobDone || s == JobFailed) && rec.State != s {
			return fmt.Errorf("%s left terminal state %s for %s", rec.Domain, s, rec.State)
		}
		allTerminal = allTerminal && (rec.State == JobDone || rec.State == JobFailed)
	}
	if drained := isClosed(w.q.Drained()); drained != allTerminal {
		return fmt.Errorf("Drained closed=%v with every job terminal=%v: %+v", drained, allTerminal, after)
	}
	return nil
}

// claim runs one claim step of up to n leases for holder h and checks
// what it granted against the model and the pre-claim export.
func (w *ilWorld) claim(h, n int, before []JobRecord) error {
	for o := range w.held {
		for i := range w.held[o] {
			if hl := &w.held[o][i]; hl.live && !w.clk.t.Before(hl.expiry) {
				hl.live = false // lapsed: this claim step reclaims it
			}
		}
	}
	wasDrained := isClosed(w.q.Drained())
	ls, _, _ := w.q.claim(n)
	if len(ls) == 0 {
		return nil
	}
	if wasDrained {
		return fmt.Errorf("%s leased after Drained closed", ls[0].Site.Domain)
	}
	if len(ls) > n {
		return fmt.Errorf("claim of %d granted %d leases", n, len(ls))
	}
	seq := map[string]int{}
	for i, rec := range before {
		seq[rec.Domain] = i
	}
	for i, l := range ls {
		dom := l.Site.Domain
		if s := before[seq[dom]].State; s != JobPending {
			return fmt.Errorf("%s leased from state %s", dom, s)
		}
		if i > 0 && seq[dom] <= seq[ls[i-1].Site.Domain] {
			return fmt.Errorf("one claim granted %s after %s: not distinct jobs in seq order", dom, ls[i-1].Site.Domain)
		}
		for o := range w.held {
			for _, hl := range w.held[o] {
				if hl.live && hl.l.Site == l.Site {
					return fmt.Errorf("%s leased while holder h%d holds it live", dom, o)
				}
			}
		}
		w.held[h] = append(w.held[h], ilHeld{l: l, live: true, expiry: w.clk.t.Add(ilTTL)})
	}
	if len(ls) == 2 {
		w.pairClaims++
	}
	return nil
}

// key fingerprints everything the queue's next decisions depend on, with
// times relative to now, so two histories that reach the same situation
// share one entry.
func (w *ilWorld) key() string {
	rel := func(at time.Time) int64 { return int64(max(at.Sub(w.clk.t), 0) / ilTick) }
	b := make([]byte, 0, 64)
	for _, dom := range w.q.order {
		j := w.q.jobs[dom]
		var at int64 // the one deadline the job's state heeds
		switch j.state {
		case statePending:
			at = rel(j.readyAt)
		case stateLeased:
			at = rel(j.expiry)
		}
		b = append(b, byte('0'+j.state), byte('0'+j.attempts))
		b = strconv.AppendInt(b, at, 10)
		b = append(b, ' ')
	}
	for _, held := range w.held {
		b = append(b, '[')
		for _, hl := range held {
			if hl.live {
				b = append(b, hl.l.Site.Domain...)
				b = strconv.AppendInt(append(b, '@'), rel(hl.expiry), 10)
			} else {
				b = append(b, "stale"...)
			}
			b = append(b, ' ')
		}
		b = append(b, ']')
	}
	if w.resumed {
		b = append(b, 'r')
	}
	return string(b)
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
