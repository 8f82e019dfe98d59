package colstore

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
)

// benchRecords builds n distinct page records, 6 pages per site, with
// the socket/http/label shape of the round-trip tests. salt keeps
// record identities distinct across benchmark iterations so every
// ingest takes the fresh path.
func benchRecords(n int, salt int) []*analysis.PageRecord {
	recs := make([]*analysis.PageRecord, n)
	for i := range recs {
		site := fmt.Sprintf("site%d-%04d.com", salt, i/6)
		recs[i] = testRecord(site, i/6+1, i%6)
	}
	return recs
}

// BenchmarkStoreIngest is the hot ingest path — fold + shard buffer —
// with sealing deferred, the per-record cost the dispatch pipeline pays
// on every page. TestStoreIngestAllocs pins its allocation budget.
func BenchmarkStoreIngest(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir(), NumShards: 4, Meta: testMeta(), SegmentPages: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	recs := benchRecords(b.N, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Ingest(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSeal is the group-commit boundary: encode each shard's
// buffered records into a columnar segment and publish it durably
// (write temp, fsync, rename, fsync dir). One iteration seals 256
// records across 4 shards — fsync cost dominates, as in production.
func BenchmarkStoreSeal(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir(), NumShards: 4, Meta: testMeta(), SegmentPages: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := benchRecords(256, i+1)
		b.StartTimer()
		for _, rec := range recs {
			if _, err := st.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Seal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpenReplay is crash recovery and the wsquery cold
// start: open the sealed segments read-only, replay them through the
// fold, and snapshot the canonical dataset.
func BenchmarkStoreOpenReplay(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(Config{Dir: dir, NumShards: 4, Meta: testMeta(), SegmentPages: 128})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range benchRecords(1536, 0) {
		if _, err := st.Ingest(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, err := OpenRead(dir)
		if err != nil {
			b.Fatal(err)
		}
		if ds, _ := ro.Dataset(); len(ds.Sites) == 0 {
			b.Fatal("replay produced no sites")
		}
	}
}

// BenchmarkStoreQuery is the steady-state query service over the
// version-cached snapshot, the request shapes the HTTP API serves while
// a crawl runs: a chains group-by, which filters every socket per
// request, and a whole /tables request for Table 2, which cuts and
// encodes the snapshot's cached rows. TestCachedQueryAllocs pins the
// table row's allocation budget.
func BenchmarkStoreQuery(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir(), NumShards: 4, Meta: testMeta(), SegmentPages: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range benchRecords(1536, 0) {
		if _, err := st.Ingest(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("chains", func(b *testing.B) {
		e := NewEngine(st)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := e.Chains(ChainsQuery{GroupBy: "pair", AA: "received"})
			if res.Total == 0 {
				b.Fatal("query matched nothing")
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		h := NewHandler(st)
		w := &bufferWriter{header: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/tables?table=2&top=15", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveBuffered(h, w, req)
			if w.status != http.StatusOK || w.body.Len() == 0 {
				b.Fatalf("status %d, %d body bytes", w.status, w.body.Len())
			}
		}
	})
}
