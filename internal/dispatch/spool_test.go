package dispatch

import (
	"os"
	"strings"
	"testing"
)

// The spool writer in benchpin.go is bench's traced twin of the page
// path; these tests hold it to the layout and group commit that twin
// times.

// openTestSpool opens a fresh spool in dir under the one policy the
// writer accepts.
func openTestSpool(t *testing.T, dir string, resume bool) *spooler {
	t.Helper()
	sp, err := OpenSpoolBatch(dir, spoolShards, resume, BatchPolicy{Pages: groupPages, Bytes: groupBytes})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpoolerShardAffinityAndLayout(t *testing.T) {
	dir := t.TempDir()
	sp := openTestSpool(t, dir, false)
	defer sp.Close()
	if _, err := OpenSpoolBatch(t.TempDir(), spoolShards+1, false, BatchPolicy{Pages: groupPages, Bytes: groupBytes}); err == nil {
		t.Error("a spool of another shard count opened")
	}
	// A site's pages always land in its one shard.
	shard := shardFor("alpha.com", spoolShards)
	for i := 0; i < 10; i++ {
		if shardFor("alpha.com", spoolShards) != shard {
			t.Fatal("shard assignment unstable")
		}
	}
	for _, p := range []string{"http://alpha.com/", "http://alpha.com/a", "http://alpha.com/b"} {
		if err := sp.Append(rec("alpha.com", p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(shardPath(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 {
		t.Errorf("shard has %d lines, want 3", lines)
	}
	// Other shards exist but are empty.
	sizes, err := sp.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != spoolShards {
		t.Fatalf("%d shard sizes, want %d", len(sizes), spoolShards)
	}
	for i, n := range sizes {
		if i == shard {
			if n != int64(len(data)) {
				t.Errorf("ShardSizes reports %d bytes for shard %d, the file holds %d", n, i, len(data))
			}
			continue
		}
		if n != 0 {
			t.Errorf("shard %d not empty", i)
		}
	}
}

func TestSpoolerFreshRunTruncatesOldShards(t *testing.T) {
	dir := t.TempDir()
	sp := openTestSpool(t, dir, false)
	if err := sp.Append(rec("a.com", "http://a.com/")); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumed open appends to what is there; a fresh one truncates.
	sp2 := openTestSpool(t, dir, true)
	sizes, err := sp2.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	if n := sizes[shardFor("a.com", spoolShards)]; n == 0 {
		t.Error("a resumed open truncated the shard")
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	sp3 := openTestSpool(t, dir, false)
	defer sp3.Close()
	for i := 0; i < spoolShards; i++ {
		st, err := os.Stat(shardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Errorf("%s not truncated on fresh open", shardPath(dir, i))
		}
	}
}

func TestBatchedSpoolAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	sp := openTestSpool(t, dir, false)
	defer sp.Close()
	r := rec("alpha.com", "http://alpha.com/")
	shard := shardPath(dir, shardFor(r.Site, spoolShards))
	size := func() int64 {
		fi, err := os.Stat(shard)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for i := 1; i <= 2*groupPages; i++ {
		if err := sp.Append(r); err != nil {
			t.Fatal(err)
		}
		if got, committed := size(), i/groupPages > 0; (got > 0) != committed {
			t.Fatalf("after %d appends the shard holds %d bytes; group boundary every %d", i, got, groupPages)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := sp.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per append", allocs)
	// The encode itself dominates; a small fixed bound catches any
	// return to per-append buffer churn.
	if allocs > 12 {
		t.Errorf("batched append: %.1f allocs, want <= 12", allocs)
	}
}
