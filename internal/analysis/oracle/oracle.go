// Package oracle holds the spool merge that tests hold every crawl's
// fold to. No command imports it: a crawl's dataset is its ledger's
// live fold (internal/dispatch), never a re-read of its spool.
package oracle

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

// MergeStats reports what a merge consumed.
type MergeStats struct {
	analysis.MergeStats
	// Truncated counts shards ending in an *unterminated* trailing
	// fragment (a crash mid-append); the fragment is ignored. Only a
	// missing final newline qualifies: a newline-terminated line that
	// fails to decode was written complete and is corruption, which
	// fails the merge outright no matter where in the shard it sits.
	Truncated int
}

// MergeShards streams PageRecords out of spool shard files and folds
// them into a Dataset through analysis.Folder. Records are deduplicated
// by (site, pageURL), first occurrence wins — safe because site crawls
// are deterministic, so a re-crawled page carries an identical record.
// The output is canonically ordered, so it is byte-identical to the
// dataset the crawl's own fold finalized.
func MergeShards(meta analysis.DatasetMeta, paths []string) (*analysis.Dataset, MergeStats, error) {
	folder := analysis.NewFolder(meta)
	var stats MergeStats
	// One read buffer serves every shard: the reader never hands bytes
	// out past the fold of the line they belong to.
	br := bufio.NewReaderSize(nil, 64*1024)
	for _, path := range paths {
		if err := mergeShardFile(path, br, folder, &stats); err != nil {
			return nil, stats, err
		}
	}
	ds, folded := folder.Finalize()
	stats.MergeStats = folded
	stats.Shards = len(paths)
	return ds, stats, nil
}

// mergeShardFile streams one shard into the fold.
func mergeShardFile(path string, br *bufio.Reader, folder *analysis.Folder, stats *MergeStats) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("oracle: open shard: %w", err)
	}
	defer f.Close()
	br.Reset(f)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(raw) > 0 {
				stats.Truncated++
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("oracle: read shard %s: %w", path, err)
		}
		line++
		trimmed := raw[:len(raw)-1]
		if len(trimmed) == 0 {
			continue
		}
		rec, derr := analysis.DecodeSpoolLine(trimmed)
		if derr != nil {
			return fmt.Errorf("oracle: shard %s line %d: %w", path, line, derr)
		}
		for _, t := range rec.HTTP {
			if t == nil {
				return fmt.Errorf("oracle: shard %s line %d: null HTTP entry", path, line)
			}
		}
		folder.Fold(rec)
	}
}
