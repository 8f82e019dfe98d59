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

// appendRec appends r's spool line as the ledger appends a page line.
func appendRec(sp *Spooler, r *analysis.PageRecord) error {
	return sp.append(r.Site, func(dst []byte) ([]byte, error) {
		return analysis.AppendSpoolRecord(dst, r)
	})
}

func TestSpoolerShardAffinityAndLayout(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.NumShards() != DefaultShards {
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
		if err := appendRec(sp, rec("alpha.com", p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, shardName(shard)))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 {
		t.Errorf("shard has %d lines, want 3", lines)
	}
	// Other shards exist but are empty.
	for i := 0; i < DefaultShards; i++ {
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
	sp, _ := openSpool(dir, false)
	appendRec(sp, rec("a.com", "http://a.com/"))
	sp.Close()

	sp2, err := openSpool(dir, false)
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
