package dispatch

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// Spooler appends per-page records to sharded JSONL spool files.
//
// Layout: <dir>/shard-NNN.jsonl, one file per shard, one JSON-encoded
// analysis.PageRecord per line. A site's pages always land in the same
// shard (analysis.ShardFor). Appends are group-committed under
// the Spooler's BatchPolicy, so a crash loses at most one unflushed
// group per shard (one line under the zero policy). The loss is repaired
// identically on resume either way: the Ledger's replay cuts a partially
// written final line, lost pages belong to jobs the checkpoint does not
// mark done (Ledger.Commit flushes first), and re-crawled pages are
// deduplicated by (site, pageURL) in the fold.
type Spooler struct {
	dir    string
	batch  BatchPolicy
	shards []*shardFile
}

// BatchPolicy configures spool group commit. The zero value flushes
// every record to the OS before its append is acknowledged (tests and
// the benchmark's reference measurements use it; the Ledger always
// group-commits). With Pages > 1, a shard buffers up to
// Pages records (or Bytes bytes, whichever fills first) and commits
// them as a group, trading the per-record flush syscall for a bounded
// durability window. The durability contract moves with it: Flush runs
// at every group boundary, before a checkpoint publishes ShardBytes,
// before Finalize, and on Close, so checkpointed progress never
// vouches for bytes the spool has not written.
type BatchPolicy struct {
	// Pages is how many records a shard may buffer between flushes.
	// 0 or 1 flushes every record.
	Pages int
	// Bytes sizes each shard's write buffer (default 4 KiB when 0); a
	// full buffer flushes to the OS early, making Bytes the group's
	// size boundary.
	Bytes int
}

// groupCommit reports whether appends run batched.
func (p BatchPolicy) groupCommit() bool { return p.Pages > 1 }

type shardFile struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	pending int    // guarded by mu; records buffered since the last flush
	line    []byte // guarded by mu; the line being appended, reused
}

// DefaultShards is the spool shard count used wherever a config leaves
// NumShards unset. The Ledger applies it to the spool and the columnar
// store alike, since checkpoints record the count and refuse to resume
// under another.
const DefaultShards = 8

// shardName names shard i's spool file.
func shardName(i int) string { return fmt.Sprintf("shard-%03d.jsonl", i) }

// OpenSpoolBatch opens (or creates) a spool directory with numShards
// shard files under the given group-commit policy. With resume=false any
// existing shard files are truncated; with resume=true they are opened
// for append as they are (a resumed Ledger has already replayed them and
// cut any torn final line).
func OpenSpoolBatch(dir string, numShards int, resume bool, batch BatchPolicy) (*Spooler, error) {
	if numShards <= 0 {
		numShards = DefaultShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: spool dir: %w", err)
	}
	s := &Spooler{dir: dir, batch: batch}
	for i := 0; i < numShards; i++ {
		path := filepath.Join(dir, shardName(i))
		flags := os.O_CREATE | os.O_WRONLY
		if resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dispatch: open shard: %w", err)
		}
		var w *bufio.Writer
		if batch.Bytes > 0 {
			w = bufio.NewWriterSize(countingWriter{f, obs.SpoolBytes}, batch.Bytes)
		} else {
			w = bufio.NewWriter(countingWriter{f, obs.SpoolBytes})
		}
		s.shards = append(s.shards, &shardFile{f: f, w: w})
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Spooler) NumShards() int { return len(s.shards) }

// Paths lists the shard files in shard order.
func (s *Spooler) Paths() []string {
	out := make([]string, len(s.shards))
	for i := range s.shards {
		out[i] = filepath.Join(s.dir, shardName(i))
	}
	return out
}

// ShardFor maps a site domain to its shard index (analysis.ShardFor).
func (s *Spooler) ShardFor(domain string) int {
	return analysis.ShardFor(domain, len(s.shards))
}

// countingWriter counts every byte written through it in a metric:
// spool.bytes under a shard's bufio layer, so the count reflects flushed
// bytes, not buffered ones, and checkpoint.bytes.
type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Append appends one page record to its site's shard. The record
// becomes durable at the next group boundary, Flush, or Close (at once
// under the zero BatchPolicy).
func (s *Spooler) Append(rec *analysis.PageRecord) error {
	return s.append(rec.Site, func(dst []byte) ([]byte, error) {
		return analysis.AppendSpoolRecord(dst, rec)
	})
}

// append renders one line, newline included, into the shard's reused
// line buffer, writes it into domain's shard buffer and commits the
// shard's group when the policy says so.
func (s *Spooler) append(domain string, line func(dst []byte) ([]byte, error)) error {
	span := obs.StartSpan(obs.StageSpool)
	sh := s.shards[s.ShardFor(domain)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var err error
	if sh.line, err = line(sh.line[:0]); err != nil {
		return err
	}
	if _, err = sh.w.Write(sh.line); err != nil {
		return err
	}
	sh.pending++
	if !s.batch.groupCommit() || sh.pending >= s.batch.Pages {
		if err := sh.w.Flush(); err != nil {
			return err
		}
		sh.pending = 0
	}
	span.End()
	obs.SpoolAppends.Inc()
	return nil
}

// Flush commits every shard's buffered records to the OS. It is the
// group-commit boundary the durability contract hangs on: ShardSizes are
// only trustworthy, and the shard files only complete, after a Flush.
func (s *Spooler) Flush() error {
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
// shard order. Sizes are meaningful at flush boundaries: flushes write
// whole lines under the shard lock, so a size observed after Flush (or
// between per-record-flushed appends) is durable-prefix-accurate.
// Group-commit callers must Flush before trusting the sizes.
func (s *Spooler) ShardSizes() ([]int64, error) {
	out := make([]int64, len(s.shards))
	for i, path := range s.Paths() {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("dispatch: stat shard: %w", err)
		}
		out[i] = fi.Size()
	}
	return out, nil
}

// Close flushes and closes every shard.
func (s *Spooler) Close() error {
	var first error
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
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
