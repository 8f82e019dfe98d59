package dispatch

import "sort"

// Wire types: the exported, JSON-stable forms of the queue's internal
// job state. The checkpoint format builds on these records instead of
// reaching into the queue's in-memory fields, so the durable format and
// the runtime representation can evolve independently: a Queue exports
// and restores them, a Checkpoint stores and yields them, and
// Ledger.Commit is where the two meet.
//
// Encodings are golden-tested (wire_test.go): a change that alters the
// serialized bytes is a format change and must bump CheckpointVersion,
// not slip through silently.

// JobState is the durable lifecycle state of a queued job.
type JobState string

// The four job states. Leased is a runtime-only state: exporting a
// leased job for a checkpoint demotes it to pending (the lease dies
// with the process that held it).
const (
	JobPending JobState = "pending"
	JobLeased  JobState = "leased"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobRecord is the wire-safe form of one queue entry: everything a
// checkpoint or a remote dispatcher needs to reconstruct the job,
// nothing tied to the in-memory representation (no lease tokens, no
// monotonic deadlines).
type JobRecord struct {
	// Domain identifies the job (the site's registrable domain, or a
	// batch ID on the fabric path).
	Domain string `json:"domain"`
	// Rank is the site's list rank (0 when the job is not a site).
	Rank int `json:"rank,omitempty"`
	// State is the job's lifecycle state.
	State JobState `json:"state"`
	// Attempts counts attempts started so far.
	Attempts int `json:"attempts,omitempty"`
	// LastErr is the most recent failure message ("" when none).
	LastErr string `json:"lastErr,omitempty"`
}

// ExportJobs snapshots every job as a wire record, in site-list order.
// Leased jobs are exported as pending with their attempt count kept:
// a lease is meaningless outside the process that granted it.
func (q *Queue) ExportJobs() []JobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobRecord, 0, len(q.order))
	for _, dom := range q.order {
		j := q.jobs[dom]
		rec := JobRecord{Domain: dom, Rank: j.site.Rank, Attempts: j.attempts, LastErr: j.lastErr}
		switch j.state {
		case stateDone:
			rec.State = JobDone
		case stateFailed:
			rec.State = JobFailed
		default: // pending and leased both persist as pending
			rec.State = JobPending
		}
		out = append(out, rec)
	}
	return out
}

// RestoreJobs applies previously exported records to a fresh queue
// (checkpoint resume): done and failed jobs become terminal, attempt
// counts are restored, and unknown domains are ignored (a shrunk site
// list is caught earlier by Checkpoint.Compatible).
func (q *Queue) RestoreJobs(recs []JobRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range recs {
		j := q.jobs[rec.Domain]
		if j == nil {
			continue
		}
		switch rec.State {
		case JobDone:
			q.finishLocked(j, stateDone)
		case JobFailed:
			q.finishLocked(j, stateFailed)
			j.lastErr = rec.LastErr
		}
		if rec.Attempts > 0 {
			j.attempts = rec.Attempts
		}
	}
	q.wakeLocked()
}

// Jobs converts the checkpoint's durable progress into wire job
// records, sorted by domain. Pending jobs with no attempts are not
// materialized — a checkpoint only stores deviations from "fresh".
func (c *Checkpoint) Jobs() []JobRecord {
	byDomain := map[string]*JobRecord{}
	get := func(dom string) *JobRecord {
		r := byDomain[dom]
		if r == nil {
			r = &JobRecord{Domain: dom, State: JobPending}
			byDomain[dom] = r
		}
		return r
	}
	for _, dom := range c.Done {
		get(dom).State = JobDone
	}
	for dom, msg := range c.Failed {
		r := get(dom)
		r.State = JobFailed
		r.LastErr = msg
	}
	for dom, n := range c.Attempts {
		get(dom).Attempts = n
	}
	doms := make([]string, 0, len(byDomain))
	for dom := range byDomain {
		doms = append(doms, dom)
	}
	sort.Strings(doms)
	out := make([]JobRecord, 0, len(doms))
	for _, dom := range doms {
		out = append(out, *byDomain[dom])
	}
	return out
}

// SetJobs fills the checkpoint's progress fields from wire records,
// inverting Jobs. Pending records contribute only their attempt counts.
func (c *Checkpoint) SetJobs(recs []JobRecord) {
	c.Done = nil
	c.Failed = map[string]string{}
	c.Attempts = map[string]int{}
	for _, rec := range recs {
		switch rec.State {
		case JobDone:
			c.Done = append(c.Done, rec.Domain)
		case JobFailed:
			c.Failed[rec.Domain] = rec.LastErr
		}
		if rec.Attempts > 0 && rec.State != JobDone {
			c.Attempts[rec.Domain] = rec.Attempts
		}
	}
	sort.Strings(c.Done)
}
