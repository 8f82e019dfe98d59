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

// TestCheckpointGoldenJSON pins the v5 checkpoint encoding end to end.
// A local crawl and a fabric coordinator both write it: their jobs are
// sites, the v3 coordinator's batchSize and failedSites are gone, and
// the store's segment count has replaced v4's numShards and shardBytes.
func TestCheckpointGoldenJSON(t *testing.T) {
	cp := &Checkpoint{
		Version: CheckpointVersion, Name: "crawl-1", Seed: 42,
		PagesPerSite: 5, TotalSites: 3, Segments: 4,
	}
	cp.SetJobs([]JobRecord{
		{Domain: "a.com", Rank: 1, State: JobDone, Attempts: 2},
		{Domain: "b.com", Rank: 2, State: JobFailed, Attempts: 3, LastErr: "boom"},
		{Domain: "c.com", Rank: 3, State: JobPending, Attempts: 1, LastErr: "lease expired"},
	})
	const golden = `{"version":5,"name":"crawl-1","seed":42,"pagesPerSite":5,` +
		`"totalSites":3,"done":["a.com"],"failed":{"b.com":"boom"},` +
		`"attempts":{"b.com":3,"c.com":1},"segments":4}`
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != golden {
		t.Errorf("encoding drifted:\n got %s\nwant %s", data, golden)
	}
	var back Checkpoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, cp) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, cp)
	}
	// The fields bench/ still sets stay out of the file.
	cp.NumShards, cp.ShardBytes = 8, []int64{128}
	if again, err := json.Marshal(cp); err != nil || string(again) != golden {
		t.Errorf("NumShards/ShardBytes reached the encoding: %s (%v)", again, err)
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
	q := NewQueue(sites, QueueConfig{Seed: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	ctx := context.Background()
	la, _ := leaseOne(ctx, q)
	la.Complete()
	lb, _ := leaseOne(ctx, q)
	lb.Fail(errors.New("boom"))
	if _, ok := leaseOne(ctx, q); !ok {
		t.Fatal("expected a third lease (left leased on purpose)")
	}

	recs := q.ExportJobs()
	q2 := NewQueue(sites, QueueConfig{Seed: 1, Retry: RetryPolicy{MaxAttempts: 1}})
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
