package dispatch

// This file exists only so bench/ compiles unchanged until ROADMAP 1(b)
// replaces bench's hand-built twin of the page path with the product's
// own spans; 1(b) deletes it. Nothing outside bench/ may use what it
// declares (TestBenchPinsStayInBench). No crawl writes a spool or a
// checkpoint file: the columnar store is a crawl's one durable state.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

// CheckpointVersion is the version of the retired checkpoint file's
// format, which bench's twin still writes.
const CheckpointVersion = 5

// Checkpoint is the retired checkpoint file's header and progress, as
// bench's twin of the page path fills and writes it.
type Checkpoint struct {
	Version      int               `json:"version"`
	Name         string            `json:"name"`
	Seed         int64             `json:"seed"`
	PagesPerSite int               `json:"pagesPerSite"`
	TotalSites   int               `json:"totalSites"`
	Done         []string          `json:"done"`
	Failed       map[string]string `json:"failed,omitempty"`
	Attempts     map[string]int    `json:"attempts,omitempty"`
	NumShards    int               `json:"-"`
	ShardBytes   []int64           `json:"-"`
}

// The job states bench's twin records.
const (
	JobDone   = "done"
	JobFailed = "failed"
)

// JobRecord is one site's progress, as bench's twin records it.
type JobRecord struct {
	Domain   string
	Rank     int
	State    string // JobDone or JobFailed
	Attempts int
	LastErr  string
}

// SetJobs fills the checkpoint's progress fields from job records.
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

// WriteAtomic writes the checkpoint as indented JSON with
// colstore.WriteAtomic.
func (c *Checkpoint) WriteAtomic(path string) error {
	return colstore.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(c)
	})
}

// BatchPolicy names a spool group-commit policy. The spool has one,
// {Pages: 64, Bytes: 256 KiB}; OpenSpoolBatch refuses any other.
type BatchPolicy struct {
	Pages int
	Bytes int
}

// The spool's shard count and its one group-commit policy: a shard
// buffers up to 64 pages or 256 KiB between flushes.
const (
	spoolShards = 8
	groupPages  = 64
	groupBytes  = 256 * 1024
)

// spooler appends per-page records to sharded JSONL spool files:
// <dir>/shard-NNN.jsonl, one JSON-encoded analysis.PageRecord per line,
// a site's pages always in the same shard (shardFor). Each shard owns
// its write buffer and encoder under its mutex, and commits its lines to
// the OS every groupPages lines, on Flush and on Close.
type spooler struct {
	dir    string
	shards []*shardFile
}

type shardFile struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	pending int           // guarded by mu; records buffered since the last flush
	enc     *json.Encoder // guarded by mu; writes a record and its newline to w
}

// shardFor maps a site domain to one of n shards: FNV-1a of the domain,
// mod n.
func shardFor(domain string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(domain))
	return int(h.Sum64() % uint64(n))
}

// shardPath names shard i's spool file under dir.
func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", i))
}

// OpenSpoolBatch opens (or creates) a spool directory of numShards
// shard files — with resume=false truncating existing ones, with
// resume=true appending to them — for a caller that names the spool's
// one shard count and group-commit policy.
func OpenSpoolBatch(dir string, numShards int, resume bool, batch BatchPolicy) (*spooler, error) {
	if numShards != spoolShards || batch != (BatchPolicy{Pages: groupPages, Bytes: groupBytes}) {
		return nil, fmt.Errorf("dispatch: the spool has %d shards and commits groups of %d pages / %d bytes, not %d shards and %+v", spoolShards, groupPages, groupBytes, numShards, batch)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: spool dir: %w", err)
	}
	s := &spooler{dir: dir}
	for i := 0; i < spoolShards; i++ {
		flags := os.O_CREATE | os.O_WRONLY
		if resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(shardPath(dir, i), flags, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dispatch: open shard: %w", err)
		}
		w := bufio.NewWriterSize(f, groupBytes)
		s.shards = append(s.shards, &shardFile{f: f, w: w, enc: json.NewEncoder(w)})
	}
	return s, nil
}

// Append encodes one page record and appends its line to its site's
// shard, committing the shard's group at its groupPages boundary.
func (s *spooler) Append(rec *analysis.PageRecord) error {
	sh := s.shards[shardFor(rec.Site, len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.enc.Encode(rec); err != nil {
		return fmt.Errorf("dispatch: append spool record: %w", err)
	}
	sh.pending++
	if sh.pending >= groupPages {
		if err := sh.w.Flush(); err != nil {
			return err
		}
		sh.pending = 0
	}
	return nil
}

// Flush commits every shard's buffered records to the OS.
func (s *spooler) Flush() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.w.Flush(); err != nil && first == nil {
			first = err
		}
		sh.pending = 0
		sh.mu.Unlock()
	}
	return first
}

// ShardSizes returns the current on-disk size of every shard file, in
// shard order; after a Flush, every line appended so far.
func (s *spooler) ShardSizes() ([]int64, error) {
	out := make([]int64, len(s.shards))
	for i := range s.shards {
		fi, err := os.Stat(shardPath(s.dir, i))
		if err != nil {
			return nil, fmt.Errorf("dispatch: stat shard: %w", err)
		}
		out[i] = fi.Size()
	}
	return out, nil
}

// Close flushes and closes every shard.
func (s *spooler) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.w.Flush(); err != nil && first == nil {
			first = err
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	return first
}
