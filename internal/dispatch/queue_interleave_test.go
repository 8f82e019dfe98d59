package dispatch

import (
	"errors"
	"fmt"
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
//   - a settle or heartbeat on a stale lease returns false, and on a
//     live one true — "stale" judged by a model of the lease rule that
//     is independent of the queue's tokens;
//   - a resume (RestoreJobs of ExportJobs into a fresh queue) preserves
//     done, failed and attempt counts.
//
// The clock advances one tick per event; a late heartbeat first jumps it
// a whole TTL. Sequences that reach a state already explored with as
// much depth left are cut, so the bound reaches well past the six events
// the shortest drain takes.
func TestQueueInterleavings(t *testing.T) {
	const depth = 11
	seen := map[string]int{}
	var sequences, drainedStates, staleSettles int
	var walk func(prefix []ilEvent)
	walk = func(prefix []ilEvent) {
		w := newILWorld()
		for i, e := range prefix {
			if err := w.apply(e); err != nil {
				t.Fatalf("%v\nafter %s", err, ilTrace(prefix[:i+1]))
			}
		}
		sequences++
		left := depth - len(prefix)
		key := w.key()
		if d, ok := seen[key]; ok && d >= left {
			return
		}
		if _, ok := seen[key]; !ok && isClosed(w.q.Drained()) {
			drainedStates++
		}
		seen[key] = left
		staleSettles += w.staleSettles
		if left == 0 {
			return
		}
		for _, e := range w.enabled() {
			walk(append(prefix[:len(prefix):len(prefix)], e))
		}
	}
	walk(nil)
	t.Logf("%d sequences, %d distinct states (%d drained), %d stale settles refused", sequences, len(seen), drainedStates, staleSettles)
	if drainedStates == 0 || staleSettles == 0 {
		t.Error("the bound never reached a drained queue or a stale settle")
	}
}

const (
	ilTick = time.Second
	ilTTL  = 3 * ilTick
)

type ilKind int

const (
	ilClaim ilKind = iota
	ilHeartbeat
	ilLate // heartbeat after the clock has jumped a whole TTL
	ilComplete
	ilFail
	ilRelease
	ilResume
)

var ilKindNames = [...]string{"claim", "heartbeat", "late-heartbeat", "complete", "fail", "release", "resume"}

type ilEvent struct {
	kind   ilKind
	holder int
}

func ilTrace(seq []ilEvent) string {
	parts := make([]string, len(seq))
	for i, e := range seq {
		parts[i] = ilKindNames[e.kind]
		if e.kind != ilResume {
			parts[i] += fmt.Sprintf("(h%d)", e.holder)
		}
	}
	return strings.Join(parts, " → ")
}

// ilWorld is one replayed history: the queue, what each holder holds,
// and the model's verdict on whether that lease still owns its job.
type ilWorld struct {
	clk     *fakeClock
	cfg     QueueConfig
	q       *Queue
	held    [2]*Lease
	live    [2]bool      // model: the held lease was neither settled nor reclaimed
	expiry  [2]time.Time // model: when the held lease lapses
	resumed bool

	staleSettles int
}

func newILWorld() *ilWorld {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := QueueConfig{
		LeaseTTL: ilTTL, Seed: 1, Now: clk.now,
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: ilTick, MaxDelay: ilTick, JitterFrac: -1},
	}
	return &ilWorld{clk: clk, cfg: cfg, q: NewQueue(testSites(3), cfg)}
}

// enabled lists the events possible next: a holder with nothing claims,
// a holder with a lease works it; a resume may happen once.
func (w *ilWorld) enabled() []ilEvent {
	var out []ilEvent
	for h := range w.held {
		if w.held[h] == nil {
			out = append(out, ilEvent{ilClaim, h})
			continue
		}
		for k := ilHeartbeat; k <= ilRelease; k++ {
			out = append(out, ilEvent{k, h})
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
	case ilClaim:
		for o := range w.live {
			if w.live[o] && !w.clk.t.Before(w.expiry[o]) {
				w.live[o] = false // lapsed: this claim step reclaims it
			}
		}
		wasDrained := isClosed(w.q.Drained())
		l, _, _ := w.q.claim()
		if l == nil {
			break
		}
		if wasDrained {
			return fmt.Errorf("%s leased after Drained closed", l.Site.Domain)
		}
		if o := 1 - h; w.live[o] && w.held[o].Site == l.Site {
			return fmt.Errorf("%s leased to both holders", l.Site.Domain)
		}
		w.held[h], w.live[h], w.expiry[h] = l, true, w.clk.t.Add(ilTTL)
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
		w.q, w.held, w.live, w.resumed = q, [2]*Lease{}, [2]bool{}, true
	default:
		if e.kind == ilLate {
			w.clk.advance(ilTTL)
		}
		l, live := w.held[h], w.live[h]
		var ok bool
		switch e.kind {
		case ilHeartbeat, ilLate:
			ok = l.Heartbeat()
		case ilComplete:
			ok = l.Complete()
		case ilFail:
			ok = l.Fail(errors.New("flaky"))
		case ilRelease:
			ok = l.Release()
		}
		if ok != live {
			return fmt.Errorf("%s on a lease the model calls live=%v returned %v", ilKindNames[e.kind], live, ok)
		}
		if !live {
			w.staleSettles++
		}
		if ok && (e.kind == ilHeartbeat || e.kind == ilLate) {
			w.expiry[h] = w.clk.t.Add(ilTTL)
		} else {
			w.held[h], w.live[h] = nil, false
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

// key fingerprints everything the queue's next decisions depend on, with
// times relative to now, so two histories that reach the same situation
// share one entry.
func (w *ilWorld) key() string {
	rel := func(at time.Time) time.Duration { return max(at.Sub(w.clk.t), 0) / ilTick }
	var b strings.Builder
	for _, dom := range w.q.order {
		j := w.q.jobs[dom]
		var at time.Duration // the one deadline the job's state heeds
		switch j.state {
		case statePending:
			at = rel(j.readyAt)
		case stateLeased:
			at = rel(j.expiry)
		}
		fmt.Fprintf(&b, "%d/%d/%d ", j.state, j.attempts, at)
	}
	for h, l := range w.held {
		switch {
		case l == nil:
			b.WriteString("- ")
		case !w.live[h]:
			b.WriteString("stale ")
		default:
			fmt.Fprintf(&b, "%s@%d ", l.Site.Domain, rel(w.expiry[h]))
		}
	}
	fmt.Fprint(&b, w.resumed)
	return b.String()
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
