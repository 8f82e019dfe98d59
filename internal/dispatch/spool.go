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
// shard (analysis.ShardFor). Each shard owns its write buffer and line
// buffer under its mutex, and an append copies its line, so the caller's
// bytes are free again once append returns.
//
// Appends are group-committed: a shard buffers up to groupPages lines
// in a groupBytes write buffer (a full buffer flushes early) and commits
// them to the OS as a group. A crash therefore loses at most one
// unflushed group per shard, and that loss is repaired on resume: the
// Ledger's replay cuts a partially written final line, lost pages belong
// to jobs the checkpoint does not mark done (Ledger.Commit flushes
// first), and re-crawled pages are deduplicated by (site, pageURL) in
// the fold. So Flush runs at every group boundary, before a checkpoint
// publishes ShardBytes, before Finalize and on Close, and checkpointed
// progress never vouches for bytes the spool has not written.
type Spooler struct {
	dir    string
	shards []*shardFile
}

// The one group-commit policy: a shard buffers up to 64 pages or
// 256 KiB between flushes. Durability does not depend on it — Commit
// flushes before it vouches for anything — it only bounds how much
// re-crawling a crash costs.
const (
	groupPages = 64
	groupBytes = 256 * 1024
)

type shardFile struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	pending int    // guarded by mu; records buffered since the last flush
	line    []byte // guarded by mu; the line being appended, reused
}

// DefaultShards is the spool's shard count. Checkpoints record it, and a
// resume refuses a checkpoint that records another.
const DefaultShards = 8

// shardName names shard i's spool file.
func shardName(i int) string { return fmt.Sprintf("shard-%03d.jsonl", i) }

// openSpool opens (or creates) a spool directory with DefaultShards
// shard files. With resume=false any existing shard files are truncated;
// with resume=true they are opened for append as they are (a resumed
// Ledger has already replayed them and cut any torn final line).
func openSpool(dir string, resume bool) (*Spooler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: spool dir: %w", err)
	}
	s := &Spooler{dir: dir}
	for i := 0; i < DefaultShards; i++ {
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
		w := bufio.NewWriterSize(countingWriter{f, obs.SpoolBytes}, groupBytes)
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

// append renders one line, newline included, into the shard's reused
// line buffer and writes it into domain's shard buffer, committing the
// shard's group at its groupPages boundary. The line reaches the OS at
// that boundary, a Flush, or Close.
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
	if sh.pending >= groupPages {
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
// group-commit boundary the resume contract hangs on: ShardSizes are
// only trustworthy, and the shard files only complete, after a Flush.
// It does not fsync: flushed bytes survive a killed process, not an OS
// crash or power loss (DESIGN.md §7).
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
// whole lines under the shard lock, so a size observed after Flush is
// durable-prefix-accurate. Callers must Flush before trusting the sizes.
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
