package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/analysis"
)

// Segment file layout (DESIGN.md §15). A segment is the sealed, durable
// unit of the columnar store: one batch of PageRecords for one shard,
// dictionary-encoded and written atomically (tmp + fsync + rename +
// parent-dir sync).
//
//	"WSCOLSG1"                  8-byte header magic
//	uvarint version (1)
//	uvarint shard, uvarint seq
//	dict doms                   site/receiver/initiator/HTTP/label-obs domains
//	dict labels                 sent-item and recv-class vocabulary
//	dict strs                   page/socket/chain URLs, ad samples
//	columns                     column-major record data (see below)
//	footer                      5 × uint32 LE: dictsOff, colsOff,
//	                            records, sockets, bodyLen
//	uint32 LE crc32(IEEE)       over everything before it (footer incl.)
//	"WSCOLEND"                  8-byte end magic
//
// The end magic plus CRC make torn or bit-rotted segments detectable
// without trusting any length field; the footer lets a reader validate
// section offsets and sizes before decoding. Dictionaries assign IDs in
// first-use order during the column encode, so identical record batches
// produce byte-identical segments.
//
// Columns, in order. Lengths of nil-able slices/maps are encoded with a
// +1 marker (0 = nil, n+1 = n elements) so nil-ness survives the round
// trip exactly — chainDomains/chainUrls marshal null vs [] differently
// in dataset JSON, and the store's output must stay byte-identical to
// the spool-merge oracle's. Map entries are always encoded sorted by
// key. Signed int fields use zigzag varints; IDs and lengths uvarints.
//
//	pages:   site domID ×n, rank ×n, pageURL strID ×n
//	sockets: per-page socket count ×n, then per flattened socket:
//	         site, rank, pageURL, url, receiver, initiator,
//	         chainDomains, chainURLs, flags byte
//	         (crossOrigin|handshakeOk<<1|chainBlocked<<2),
//	         framesSent, framesRecv, sentItems, recvClasses,
//	         adRefs, adSamples
//	http:    per-page entry count, then per entry: key domID,
//	         domain field domID, requests, chainsBlocked,
//	         sentItems map, recvClasses map
//	obs:     per-page AAObs, NonAAObs, CDNObs maps (domID → count)
const (
	segMagic    = "WSCOLSG1"
	segEndMagic = "WSCOLEND"
	segVersion  = 1
	segTailLen  = 20 + 4 + 8 // footer + crc + end magic
)

// dict assigns dense IDs to strings in first-use order.
type dict struct {
	ids  map[string]uint64
	vals []string
}

func newDict() *dict { return &dict{ids: map[string]uint64{}} }

func (d *dict) id(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint64(len(d.vals))
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

func appendDict(buf []byte, d *dict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.vals)))
	for _, v := range d.vals {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// segEncoder holds the three dictionaries and the growing column buffer
// while a segment encodes.
type segEncoder struct {
	doms   *dict
	labels *dict
	strs   *dict
	cols   []byte
}

func (e *segEncoder) uv(v uint64)  { e.cols = binary.AppendUvarint(e.cols, v) }
func (e *segEncoder) sv(v int)     { e.cols = binary.AppendVarint(e.cols, int64(v)) }
func (e *segEncoder) dom(s string) { e.uv(e.doms.id(s)) }
func (e *segEncoder) str(s string) { e.uv(e.strs.id(s)) }

// slice encodes a nil-able string slice with the +1 nil marker.
func (e *segEncoder) slice(vals []string, d *dict) {
	if vals == nil {
		e.uv(0)
		return
	}
	e.uv(uint64(len(vals)) + 1)
	for _, v := range vals {
		e.uv(d.id(v))
	}
}

// counts encodes a nil-able map[string]int sorted by key against d.
func (e *segEncoder) counts(m map[string]int, d *dict) {
	if m == nil {
		e.uv(0)
		return
	}
	e.uv(uint64(len(m)) + 1)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.uv(d.id(k))
		e.sv(m[k])
	}
}

// encodeSegment serializes one shard's record batch into segment bytes.
func encodeSegment(shard, seq int, recs []*analysis.PageRecord) []byte {
	e := &segEncoder{doms: newDict(), labels: newDict(), strs: newDict()}

	// pages
	for _, r := range recs {
		e.dom(r.Site)
	}
	for _, r := range recs {
		e.sv(r.Rank)
	}
	for _, r := range recs {
		e.str(r.PageURL)
	}
	// sockets
	sockets := 0
	for _, r := range recs {
		e.uv(uint64(len(r.Sockets)))
		sockets += len(r.Sockets)
	}
	for _, r := range recs {
		for i := range r.Sockets {
			ws := &r.Sockets[i]
			e.dom(ws.Site)
			e.sv(ws.Rank)
			e.str(ws.PageURL)
			e.str(ws.URL)
			e.dom(ws.ReceiverDomain)
			e.dom(ws.InitiatorDomain)
			e.slice(ws.ChainDomains, e.doms)
			e.slice(ws.ChainURLs, e.strs)
			var flags byte
			if ws.CrossOrigin {
				flags |= 1
			}
			if ws.HandshakeOK {
				flags |= 2
			}
			if ws.ChainBlocked {
				flags |= 4
			}
			e.cols = append(e.cols, flags)
			e.sv(ws.FramesSent)
			e.sv(ws.FramesRecv)
			e.slice(ws.SentItems, e.labels)
			e.slice(ws.RecvClasses, e.labels)
			e.sv(ws.AdRefs)
			e.slice(ws.AdSamples, e.strs)
		}
	}
	// http
	for _, r := range recs {
		if r.HTTP == nil {
			e.uv(0)
			continue
		}
		e.uv(uint64(len(r.HTTP)) + 1)
		keys := make([]string, 0, len(r.HTTP))
		for k := range r.HTTP {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t := r.HTTP[k]
			e.dom(k)
			e.dom(t.Domain)
			e.sv(t.Requests)
			e.sv(t.ChainsBlocked)
			e.counts(t.SentItems, e.labels)
			e.counts(t.RecvClasses, e.labels)
		}
	}
	// obs
	for _, r := range recs {
		e.counts(r.AAObs, e.doms)
	}
	for _, r := range recs {
		e.counts(r.NonAAObs, e.doms)
	}
	for _, r := range recs {
		e.counts(r.CDNObs, e.doms)
	}

	// Assemble: header, dicts, columns, footer, crc, end magic.
	buf := make([]byte, 0, len(e.cols)+4096)
	buf = append(buf, segMagic...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, uint64(seq))
	dictsOff := uint32(len(buf))
	buf = appendDict(buf, e.doms)
	buf = appendDict(buf, e.labels)
	buf = appendDict(buf, e.strs)
	colsOff := uint32(len(buf))
	buf = append(buf, e.cols...)
	bodyLen := uint32(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, dictsOff)
	buf = binary.LittleEndian.AppendUint32(buf, colsOff)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sockets))
	buf = binary.LittleEndian.AppendUint32(buf, bodyLen)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	buf = append(buf, segEndMagic...)
	return buf
}

// segDecoder walks a validated segment byte slice.
type segDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *segDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *segDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("colstore: segment: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *segDecoder) sv() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("colstore: segment: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *segDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("colstore: segment: truncated at offset %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// fits reports whether n elements of at least a byte each fit in the
// bytes left, failing the decode when they do not: a hostile length is
// an error, never an allocation.
func (d *segDecoder) fits(n uint64, what string) bool {
	if d.err == nil && n > uint64(len(d.data)-d.off) {
		d.fail("colstore: segment: %s claims %d entries, %d bytes left", what, n, len(d.data)-d.off)
	}
	return d.err == nil
}

func (d *segDecoder) dict() []string {
	n := d.uv()
	if !d.fits(n, "dictionary") {
		return nil
	}
	vals := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l := d.uv()
		if !d.fits(l, "dictionary entry") {
			return nil
		}
		vals = append(vals, string(d.data[d.off:d.off+int(l)]))
		d.off += int(l)
	}
	return vals
}

func (d *segDecoder) lookup(vals []string, what string) string {
	id := d.uv()
	if d.err != nil {
		return ""
	}
	if id >= uint64(len(vals)) {
		d.fail("colstore: segment: %s id %d out of range (%d entries)", what, id, len(vals))
		return ""
	}
	return vals[id]
}

func (d *segDecoder) slice(vals []string, what string) []string {
	marker := d.uv()
	if marker == 0 || !d.fits(marker-1, what) {
		return nil
	}
	n := marker - 1
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.lookup(vals, what))
	}
	return out
}

func (d *segDecoder) counts(vals []string, what string) map[string]int {
	marker := d.uv()
	if marker == 0 || !d.fits(marker-1, what) {
		return nil
	}
	n := marker - 1
	out := make(map[string]int, n)
	for i := uint64(0); i < n; i++ {
		k := d.lookup(vals, what)
		out[k] = d.sv()
	}
	return out
}

// decodeSegment validates and deserializes a sealed segment.
func decodeSegment(data []byte) (shard, seq int, recs []*analysis.PageRecord, err error) {
	if len(data) < len(segMagic)+segTailLen {
		return 0, 0, nil, fmt.Errorf("colstore: segment too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, 0, nil, fmt.Errorf("colstore: bad segment magic")
	}
	if string(data[len(data)-8:]) != segEndMagic {
		return 0, 0, nil, fmt.Errorf("colstore: segment missing end magic (torn write)")
	}
	crcOff := len(data) - 12
	want := binary.LittleEndian.Uint32(data[crcOff:])
	if got := crc32.ChecksumIEEE(data[:crcOff]); got != want {
		return 0, 0, nil, fmt.Errorf("colstore: segment checksum mismatch (got %08x, want %08x)", got, want)
	}
	ftr := data[crcOff-20 : crcOff]
	dictsOff := binary.LittleEndian.Uint32(ftr[0:])
	colsOff := binary.LittleEndian.Uint32(ftr[4:])
	records := binary.LittleEndian.Uint32(ftr[8:])
	sockets := binary.LittleEndian.Uint32(ftr[12:])
	bodyLen := binary.LittleEndian.Uint32(ftr[16:])
	if int(bodyLen) != crcOff-20 || dictsOff > colsOff || colsOff > bodyLen {
		return 0, 0, nil, fmt.Errorf("colstore: segment footer offsets inconsistent")
	}
	// Every record and every socket takes at least a byte of columns.
	if records > bodyLen-colsOff || sockets > bodyLen-colsOff {
		return 0, 0, nil, fmt.Errorf("colstore: segment footer claims %d records, %d sockets in %d column bytes", records, sockets, bodyLen-colsOff)
	}

	d := &segDecoder{data: data[:bodyLen], off: len(segMagic)}
	if v := d.uv(); d.err == nil && v != segVersion {
		return 0, 0, nil, fmt.Errorf("colstore: unsupported segment version %d", v)
	}
	shard = int(d.uv())
	seq = int(d.uv())
	if d.err == nil && d.off != int(dictsOff) {
		return 0, 0, nil, fmt.Errorf("colstore: segment header/footer disagree on dictionary offset")
	}
	doms := d.dict()
	labels := d.dict()
	strs := d.dict()
	if d.err == nil && d.off != int(colsOff) {
		return 0, 0, nil, fmt.Errorf("colstore: segment dictionaries/footer disagree on column offset")
	}

	n := int(records)
	recs = make([]*analysis.PageRecord, n)
	for i := range recs {
		recs[i] = &analysis.PageRecord{}
	}
	// pages
	for i := 0; i < n; i++ {
		recs[i].Site = d.lookup(doms, "site")
	}
	for i := 0; i < n; i++ {
		recs[i].Rank = d.sv()
	}
	for i := 0; i < n; i++ {
		recs[i].PageURL = d.lookup(strs, "pageURL")
	}
	// sockets
	total := uint64(0)
	for i := 0; i < n; i++ {
		c := d.uv()
		if d.err != nil {
			break
		}
		if c > uint64(sockets)-total {
			d.fail("colstore: segment socket counts exceed footer total %d", sockets)
			break
		}
		total += c
		if c > 0 {
			recs[i].Sockets = make([]analysis.SocketRecord, c)
		}
	}
	if d.err == nil && total != uint64(sockets) {
		d.fail("colstore: segment socket counts sum %d, footer says %d", total, sockets)
	}
	for i := 0; i < n; i++ {
		for j := range recs[i].Sockets {
			ws := &recs[i].Sockets[j]
			ws.Site = d.lookup(doms, "socket site")
			ws.Rank = d.sv()
			ws.PageURL = d.lookup(strs, "socket pageURL")
			ws.URL = d.lookup(strs, "socket url")
			ws.ReceiverDomain = d.lookup(doms, "receiver")
			ws.InitiatorDomain = d.lookup(doms, "initiator")
			ws.ChainDomains = d.slice(doms, "chain domain")
			ws.ChainURLs = d.slice(strs, "chain url")
			flags := d.byte()
			ws.CrossOrigin = flags&1 != 0
			ws.HandshakeOK = flags&2 != 0
			ws.ChainBlocked = flags&4 != 0
			ws.FramesSent = d.sv()
			ws.FramesRecv = d.sv()
			ws.SentItems = d.slice(labels, "sent item")
			ws.RecvClasses = d.slice(labels, "recv class")
			ws.AdRefs = d.sv()
			ws.AdSamples = d.slice(strs, "ad sample")
		}
	}
	// http
	for i := 0; i < n; i++ {
		marker := d.uv()
		if marker == 0 || !d.fits(marker-1, "http") {
			continue
		}
		m := make(map[string]*analysis.DomainTraffic, marker-1)
		for e := uint64(0); e < marker-1; e++ {
			k := d.lookup(doms, "http key")
			t := &analysis.DomainTraffic{}
			t.Domain = d.lookup(doms, "http domain")
			t.Requests = d.sv()
			t.ChainsBlocked = d.sv()
			t.SentItems = d.counts(labels, "http sent item")
			t.RecvClasses = d.counts(labels, "http recv class")
			m[k] = t
		}
		recs[i].HTTP = m
	}
	// obs
	for i := 0; i < n; i++ {
		recs[i].AAObs = d.counts(doms, "aa obs")
	}
	for i := 0; i < n; i++ {
		recs[i].NonAAObs = d.counts(doms, "non-aa obs")
	}
	for i := 0; i < n; i++ {
		recs[i].CDNObs = d.counts(doms, "cdn obs")
	}
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	if d.off != len(d.data) {
		return 0, 0, nil, fmt.Errorf("colstore: segment has %d trailing column bytes", len(d.data)-d.off)
	}
	return shard, seq, recs, nil
}
