package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/crawler"
)

// TestJobRecordGoldenJSON pins the wire encoding of JobRecord. A diff
// here is a wire-format change: the checkpoint format and the fabric
// protocol both embed these records, so their versions must be bumped
// in lockstep with any intentional change.
func TestJobRecordGoldenJSON(t *testing.T) {
	for _, tc := range []struct {
		rec    JobRecord
		golden string
	}{
		{
			JobRecord{Domain: "a.com", Rank: 7, State: JobDone},
			`{"domain":"a.com","rank":7,"state":"done"}`,
		},
		{
			JobRecord{Domain: "b.com", State: JobFailed, Attempts: 3, LastErr: "boom"},
			`{"domain":"b.com","state":"failed","attempts":3,"lastErr":"boom"}`,
		},
		{
			JobRecord{Domain: "c.com", State: JobPending, Attempts: 1},
			`{"domain":"c.com","state":"pending","attempts":1}`,
		},
	} {
		data, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.golden {
			t.Errorf("encoding drifted:\n got %s\nwant %s", data, tc.golden)
		}
		var back JobRecord
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.rec {
			t.Errorf("round trip mismatch: %+v != %+v", back, tc.rec)
		}
	}
}

// TestCheckpointGoldenJSON pins the v3 checkpoint encoding end to end,
// in both of its modes: a single-process crawl (jobs are sites — the v2
// bytes but for the version number) and a coordinator's (batchSize set,
// jobs are batch IDs, per-site failures alongside).
func TestCheckpointGoldenJSON(t *testing.T) {
	site := &Checkpoint{
		Version: CheckpointVersion, Name: "crawl-1", Seed: 42,
		NumShards: 2, PagesPerSite: 5, TotalSites: 3,
	}
	site.SetJobs([]JobRecord{
		{Domain: "a.com", State: JobDone},
		{Domain: "b.com", State: JobFailed, Attempts: 3, LastErr: "boom"},
		{Domain: "c.com", State: JobPending, Attempts: 1},
	})
	site.ShardBytes = []int64{128, 0}

	batch := &Checkpoint{
		Version: CheckpointVersion, Name: "pre-crawl-0", Seed: 42,
		NumShards: 2, PagesPerSite: 5, TotalSites: 10, BatchSize: 4,
	}
	batch.SetJobs([]JobRecord{
		{Domain: "b0001", Rank: 1, State: JobDone, Attempts: 1},
		{Domain: "b0000", State: JobPending, Attempts: 2, LastErr: "lease expired"},
		{Domain: "b0002", Rank: 2, State: JobPending},
	})
	batch.FailedSites = map[string]string{"x.com": "homepage 500"}
	batch.ShardBytes = []int64{64, 128}

	for _, tc := range []struct {
		name   string
		cp     *Checkpoint
		golden string
	}{
		{"site", site, `{"version":3,"name":"crawl-1","seed":42,"numShards":2,"pagesPerSite":5,` +
			`"totalSites":3,"done":["a.com"],"failed":{"b.com":"boom"},` +
			`"attempts":{"b.com":3,"c.com":1},"shardBytes":[128,0]}`},
		{"batch", batch, `{"version":3,"name":"pre-crawl-0","seed":42,"numShards":2,"pagesPerSite":5,` +
			`"totalSites":10,"batchSize":4,"done":["b0001"],"attempts":{"b0000":2},` +
			`"failedSites":{"x.com":"homepage 500"},"shardBytes":[64,128]}`},
	} {
		data, err := json.Marshal(tc.cp)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.golden {
			t.Errorf("%s: encoding drifted:\n got %s\nwant %s", tc.name, data, tc.golden)
		}
		var back Checkpoint
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		// omitempty drops the empty maps SetJobs leaves behind.
		if len(tc.cp.Failed) == 0 {
			tc.cp.Failed = nil
		}
		if !reflect.DeepEqual(&back, tc.cp) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", tc.name, back, tc.cp)
		}
	}
}

// TestJobsSetJobsInverse proves Jobs and SetJobs are inverses over the
// states a checkpoint stores.
func TestJobsSetJobsInverse(t *testing.T) {
	recs := []JobRecord{
		{Domain: "a.com", State: JobDone},
		{Domain: "b.com", State: JobFailed, Attempts: 2, LastErr: "x"},
		{Domain: "c.com", State: JobPending, Attempts: 1},
	}
	var cp Checkpoint
	cp.SetJobs(recs)
	got := cp.Jobs()
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("Jobs(SetJobs(recs)) != recs:\n got %+v\nwant %+v", got, recs)
	}
}

// TestQueueExportRestoreJobs proves a queue round-trips through wire
// records: export a half-crawled queue, restore into a fresh one, and
// the visible progress matches. Leased jobs demote to pending (leases
// die with their process) but keep their attempt counts.
func TestQueueExportRestoreJobs(t *testing.T) {
	sites := []crawler.Site{{Domain: "a.com", Rank: 1}, {Domain: "b.com", Rank: 2}, {Domain: "c.com", Rank: 3}, {Domain: "d.com", Rank: 4}}
	q := NewQueue(sites, QueueConfig{Seed: 1})
	ctx := context.Background()
	la, _ := q.Lease(ctx)
	la.Complete()
	lb, _ := q.Lease(ctx)
	lb.Fail(Fatal(errors.New("boom")))
	if _, ok := q.Lease(ctx); !ok {
		t.Fatal("expected a third lease (left leased on purpose)")
	}

	recs := q.ExportJobs()
	q2 := NewQueue(sites, QueueConfig{Seed: 1})
	q2.RestoreJobs(recs)
	p := q2.Progress()
	if p.Done != 1 || p.Failed != 1 || p.Pending != 2 || p.Leased != 0 {
		t.Errorf("restored progress = %+v", p)
	}
	// The leased job's attempt survived the round trip.
	for _, rec := range q2.ExportJobs() {
		if rec.Domain == "c.com" && rec.Attempts != 1 {
			t.Errorf("c.com attempts = %d, want 1", rec.Attempts)
		}
	}
}
