package dispatch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func rec(site, page string) *analysis.PageRecord {
	return &analysis.PageRecord{Site: site, Rank: 1, PageURL: page}
}

func TestSpoolerShardAffinityAndLayout(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpoolBatch(dir, 4, false, BatchPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.NumShards() != 4 {
		t.Fatalf("shards = %d", sp.NumShards())
	}
	// A site's pages always land in its one shard.
	shard := sp.ShardFor("alpha.com")
	for i := 0; i < 10; i++ {
		if sp.ShardFor("alpha.com") != shard {
			t.Fatal("shard assignment unstable")
		}
	}
	for _, p := range []string{"http://alpha.com/", "http://alpha.com/a", "http://alpha.com/b"} {
		if err := sp.Append(rec("alpha.com", p)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, shardName(shard)))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 {
		t.Errorf("shard has %d lines, want 3", lines)
	}
	// Other shards exist but are empty.
	for i := 0; i < 4; i++ {
		if i == shard {
			continue
		}
		st, err := os.Stat(filepath.Join(dir, shardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Errorf("shard %d not empty", i)
		}
	}
}

func TestSpoolerFreshRunTruncatesOldShards(t *testing.T) {
	dir := t.TempDir()
	sp, _ := OpenSpoolBatch(dir, 2, false, BatchPolicy{})
	sp.Append(rec("a.com", "http://a.com/"))
	sp.Close()

	sp2, err := OpenSpoolBatch(dir, 2, false, BatchPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	for _, p := range sp2.Paths() {
		st, _ := os.Stat(p)
		if st.Size() != 0 {
			t.Errorf("%s not truncated on fresh open", p)
		}
	}
}

func TestSpoolerResumeRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	sp, _ := OpenSpoolBatch(dir, 1, false, BatchPolicy{})
	sp.Append(rec("a.com", "http://a.com/"))
	sp.Append(rec("a.com", "http://a.com/x"))
	sp.Close()

	// Simulate a crash mid-append: a torn line with no newline.
	path := filepath.Join(dir, shardName(0))
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"site":"a.com","rank":1,"pageUrl":"http://a.co`)
	f.Close()

	sp2, err := OpenSpoolBatch(dir, 1, true, BatchPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	sp2.Append(rec("b.com", "http://b.com/"))
	sp2.Close()

	ds, stats, err := analysis.MergeShards(analysis.DatasetMeta{Name: "t"}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 3 {
		t.Errorf("pages = %d, want 3 (torn line dropped, append readable)", stats.Pages)
	}
	if stats.Truncated != 0 {
		t.Errorf("truncated = %d after repair, want 0", stats.Truncated)
	}
	if len(ds.Sites) != 2 {
		t.Errorf("sites = %v", ds.Sites)
	}
}
