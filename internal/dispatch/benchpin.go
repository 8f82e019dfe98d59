package dispatch

// This file exists only so bench/ compiles unchanged until ROADMAP 1(b)
// replaces bench's hand-built twin of the page path with the product's
// own spans; 1(b) deletes it. Nothing outside bench/ may use what it
// declares (TestBenchPinsStayInBench).

import (
	"fmt"

	"repro/internal/analysis"
)

// BatchPolicy names a spool group-commit policy. The spool has one,
// {Pages: 64, Bytes: 256 KiB}; OpenSpoolBatch refuses any other.
type BatchPolicy struct {
	Pages int
	Bytes int
}

// OpenSpoolBatch is openSpool for a caller that names the spool's one
// shard count and group-commit policy.
func OpenSpoolBatch(dir string, numShards int, resume bool, batch BatchPolicy) (*Spooler, error) {
	if numShards != DefaultShards || batch != (BatchPolicy{Pages: groupPages, Bytes: groupBytes}) {
		return nil, fmt.Errorf("dispatch: the spool has %d shards and commits groups of %d pages / %d bytes, not %d shards and %+v", DefaultShards, groupPages, groupBytes, numShards, batch)
	}
	return openSpool(dir, resume)
}

// Append encodes one page record and appends its line to its site's
// shard, as the ledger appends a page line.
func (s *Spooler) Append(rec *analysis.PageRecord) error {
	return s.append(rec.Site, func(dst []byte) ([]byte, error) {
		return analysis.AppendSpoolRecord(dst, rec)
	})
}
