package colstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/analysis"
)

// resealed returns data with the magics, footer body length and
// checksum a sealed segment carries, so mutated bytes reach the column
// decoder instead of all failing the CRC check.
func resealed(data []byte) []byte {
	if len(data) < len(segMagic)+segTailLen {
		return data
	}
	b := bytes.Clone(data)
	copy(b, segMagic)
	copy(b[len(b)-len(segEndMagic):], segEndMagic)
	crcOff := len(b) - 12
	binary.LittleEndian.PutUint32(b[crcOff-4:], uint32(crcOff-20))
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[:crcOff]))
	return b
}

// FuzzDecodeSegment feeds decodeSegment hostile bytes, as they are and
// resealed. It must return an error or records, never panic, and never
// return more records than the input has bytes (a length taken on
// trust is an unbounded allocation). Every accepted segment must
// round-trip: encoding what it decoded to, decoding that and encoding
// again gives the same bytes.
func FuzzDecodeSegment(f *testing.F) {
	recs := []*analysis.PageRecord{
		testRecord("pub.com", 1, 0),
		testRecord("pub.com", 1, 1),
		{Site: "bare.com", Rank: 3, PageURL: "http://bare.com/"},
	}
	full := encodeSegment(3, 7, recs)
	f.Add(full)
	f.Add(encodeSegment(0, 0, nil))
	f.Add(encodeSegment(1, 2, recs[2:]))
	f.Add(full[:len(full)/2])
	f.Add([]byte(segMagic + "\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			shard, seq, got, err := decodeSegment(in)
			if err != nil {
				continue
			}
			if len(got) > len(in) {
				t.Fatalf("%d bytes decoded to %d records", len(in), len(got))
			}
			enc := encodeSegment(shard, seq, got)
			shard2, seq2, again, err := decodeSegment(enc)
			if err != nil {
				t.Fatalf("re-encoded segment does not decode: %v", err)
			}
			if shard2 != shard || seq2 != seq {
				t.Fatalf("shard/seq %d/%d came back as %d/%d", shard, seq, shard2, seq2)
			}
			if !bytes.Equal(encodeSegment(shard2, seq2, again), enc) {
				t.Fatal("encode → decode → encode is not byte-identical")
			}
		}
	})
}
