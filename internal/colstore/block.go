package colstore

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
)

// A page block is one page record as a fabric worker ships it: the
// image of a segment holding that record alone, numbered 0 — the same
// magic, version, dictionaries, columns, footer and CRC a sealed segment
// has, so a page crosses the wire in the store's one encoding and is
// checked by the one decoder a replay runs.

// blockEncoders pools the encoders AppendPageBlock builds blocks in.
var blockEncoders = sync.Pool{New: func() any { return new(segEncoder) }}

// AppendPageBlock appends rec's page block to dst. The block is built
// in a pooled encoder, so a block appended to a nil dst costs one
// allocation, sized to it.
func AppendPageBlock(dst []byte, rec *analysis.PageRecord) []byte {
	e := blockEncoders.Get().(*segEncoder)
	defer blockEncoders.Put(e)
	e.reset()
	e.add(rec)
	e.out = e.appendSegment(e.out[:0], 0)
	return append(dst, e.out...)
}

// DecodePageBlock decodes a page block: a valid segment image numbered
// 0 that holds exactly one page record and no outcome row. The record
// owns its strings, none of which alias data.
func DecodePageBlock(data []byte) (*analysis.PageRecord, error) {
	seq, recs, rows, err := decodeSegment(data)
	switch {
	case err != nil:
		return nil, err
	case seq != 0 || len(recs) != 1 || len(rows) != 0:
		return nil, fmt.Errorf("colstore: page block holds %d records and %d outcome rows as seq %d, want one record as seq 0", len(recs), len(rows), seq)
	}
	return recs[0], nil
}
