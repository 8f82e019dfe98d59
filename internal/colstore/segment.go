package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/analysis"
)

// Segment file layout (DESIGN.md §15). A segment is the sealed, durable
// unit of the columnar store: one commit's batch of PageRecords and the
// outcome rows of the attempts it settled, dictionary-encoded and
// written atomically (tmp + fsync + rename + parent-dir sync).
//
//	"WSCOLSG1"                  8-byte header magic
//	uvarint version (3)
//	uvarint seq
//	dict doms                   site/receiver/initiator/HTTP/label-obs domains
//	dict labels                 sent-item and recv-class vocabulary
//	dict strs                   page/socket/chain URLs, ad samples, errors
//	columns                     column-major record data (see below)
//	footer                      6 × uint32 LE: dictsOff, colsOff,
//	                            records, sockets, outcomes, bodyLen
//	uint32 LE crc32(IEEE)       over everything before it (footer incl.)
//	"WSCOLEND"                  8-byte end magic
//
// The end magic plus CRC make torn or bit-rotted segments detectable
// without trusting any length field; the footer lets a reader validate
// section offsets and sizes before decoding. Records are encoded as they
// are ingested, each into every column, and dictionaries assign IDs in
// first-use order, so identical record sequences produce byte-identical
// segments.
//
// Columns, in order. Lengths of nil-able lists are encoded with a +1
// marker (0 = nil, n+1 = n elements) so nil-ness survives the round
// trip exactly — chainDomains/chainUrls marshal null vs [] differently
// in dataset JSON, and the store's output must stay byte-identical to
// a fold of the same records. A record's HTTP entries and count lists
// are encoded in the record's order, which is strictly ascending by key
// (analysis.PageRecord.CheckOrder); the decoder refuses any other. An
// HTTP entry's key and domain field name the same domain. Signed int
// fields use zigzag varints; IDs and lengths uvarints.
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
//	         sentItems counts, recvClasses counts
//	obs:     per-page AAObs, NonAAObs, CDNObs counts (domID → count)
//	outcomes: per row: domain domID, attempt, state byte
//	         (0 done, 1 retry, 2 failed), error strID
const (
	segMagic    = "WSCOLSG1"
	segEndMagic = "WSCOLEND"
	segVersion  = 3
	segTailLen  = 24 + 4 + 8 // footer + crc + end magic
)

// Outcome is one settled attempt of a site: the row a crawl's settle
// appends to the store after that site's pages, so any sealed prefix
// that holds the row holds the pages too. It carries no clock and no
// worker, so a single-worker crawl's store stays byte-deterministic.
type Outcome struct {
	Domain  string
	Attempt int          // the attempt's number: 1 for a first try
	State   OutcomeState // where the settle moved the site
	Err     string       // the attempt's error; "" when done
}

// OutcomeState is where a settle moved its site.
type OutcomeState uint8

// The outcome states: done and failed are terminal; retry puts the
// site back in the queue.
const (
	OutcomeDone OutcomeState = iota
	OutcomeRetry
	OutcomeFailed
)

// dict assigns dense IDs to strings in first-use order.
type dict struct {
	ids  map[string]uint64
	vals []string
}

func (d *dict) id(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = map[string]uint64{}
	}
	id := uint64(len(d.vals))
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

// reset empties the dictionary, keeping its storage.
func (d *dict) reset() {
	clear(d.ids)
	clear(d.vals)
	d.vals = d.vals[:0]
}

func appendDict(buf []byte, d *dict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.vals)))
	for _, v := range d.vals {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// The segment's columns, in file order.
const (
	colSite = iota
	colRank
	colPageURL
	colSocketCount
	colSockets
	colHTTP
	colAAObs
	colNonAAObs
	colCDNObs
	colOutcomes
	numCols
)

// segEncoder is one segment being built: records and outcome rows are
// encoded into its columns as they are added, so nothing holds a record
// until the seal, and appendSegment assembles the file. Its storage —
// dictionaries, columns — is kept across reset.
type segEncoder struct {
	doms, labels, strs         dict
	cols                       [numCols][]byte
	records, sockets, outcomes int
	out                        []byte // the segment last assembled, a buffer the next reuses
}

func (e *segEncoder) uv(c int, v uint64) { e.cols[c] = binary.AppendUvarint(e.cols[c], v) }
func (e *segEncoder) sv(c int, v int)    { e.cols[c] = binary.AppendVarint(e.cols[c], int64(v)) }

// slice encodes a nil-able string slice with the +1 nil marker.
func (e *segEncoder) slice(c int, vals []string, d *dict) {
	if vals == nil {
		e.uv(c, 0)
		return
	}
	e.uv(c, uint64(len(vals))+1)
	for _, v := range vals {
		e.uv(c, d.id(v))
	}
}

// counts encodes a nil-able count list against d, in its order.
func (e *segEncoder) counts(c int, cs []analysis.Count, d *dict) {
	if cs == nil {
		e.uv(c, 0)
		return
	}
	e.uv(c, uint64(len(cs))+1)
	for _, x := range cs {
		e.uv(c, d.id(x.Key))
		e.sv(c, x.N)
	}
}

// add encodes one record into the columns.
func (e *segEncoder) add(r *analysis.PageRecord) {
	e.uv(colSite, e.doms.id(r.Site))
	e.sv(colRank, r.Rank)
	e.uv(colPageURL, e.strs.id(r.PageURL))
	e.uv(colSocketCount, uint64(len(r.Sockets)))
	for i := range r.Sockets {
		ws := &r.Sockets[i]
		const c = colSockets
		e.uv(c, e.doms.id(ws.Site))
		e.sv(c, ws.Rank)
		e.uv(c, e.strs.id(ws.PageURL))
		e.uv(c, e.strs.id(ws.URL))
		e.uv(c, e.doms.id(ws.ReceiverDomain))
		e.uv(c, e.doms.id(ws.InitiatorDomain))
		e.slice(c, ws.ChainDomains, &e.doms)
		e.slice(c, ws.ChainURLs, &e.strs)
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
		e.cols[c] = append(e.cols[c], flags)
		e.sv(c, ws.FramesSent)
		e.sv(c, ws.FramesRecv)
		e.slice(c, ws.SentItems, &e.labels)
		e.slice(c, ws.RecvClasses, &e.labels)
		e.sv(c, ws.AdRefs)
		e.slice(c, ws.AdSamples, &e.strs)
	}
	if r.HTTP == nil {
		e.uv(colHTTP, 0)
	} else {
		e.uv(colHTTP, uint64(len(r.HTTP))+1)
		for i := range r.HTTP {
			t := &r.HTTP[i]
			id := e.doms.id(t.Domain)
			e.uv(colHTTP, id) // the entry's key
			e.uv(colHTTP, id) // its domain field
			e.sv(colHTTP, t.Requests)
			e.sv(colHTTP, t.ChainsBlocked)
			e.counts(colHTTP, t.SentItems, &e.labels)
			e.counts(colHTTP, t.RecvClasses, &e.labels)
		}
	}
	e.counts(colAAObs, r.AAObs, &e.doms)
	e.counts(colNonAAObs, r.NonAAObs, &e.doms)
	e.counts(colCDNObs, r.CDNObs, &e.doms)
	e.records++
	e.sockets += len(r.Sockets)
}

// addOutcome encodes one outcome row.
func (e *segEncoder) addOutcome(o Outcome) {
	e.uv(colOutcomes, e.doms.id(o.Domain))
	e.uv(colOutcomes, uint64(o.Attempt))
	e.cols[colOutcomes] = append(e.cols[colOutcomes], byte(o.State))
	e.uv(colOutcomes, e.strs.id(o.Err))
	e.outcomes++
}

// appendSegment appends the segment file of the records and rows added so far,
// numbered seq, to buf: header, dicts, columns, footer, crc, end magic.
func (e *segEncoder) appendSegment(buf []byte, seq int) []byte {
	buf = append(buf, segMagic...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(seq))
	dictsOff := uint32(len(buf))
	buf = appendDict(buf, &e.doms)
	buf = appendDict(buf, &e.labels)
	buf = appendDict(buf, &e.strs)
	colsOff := uint32(len(buf))
	for _, col := range e.cols {
		buf = append(buf, col...)
	}
	bodyLen := uint32(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, dictsOff)
	buf = binary.LittleEndian.AppendUint32(buf, colsOff)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.records))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.sockets))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.outcomes))
	buf = binary.LittleEndian.AppendUint32(buf, bodyLen)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return append(buf, segEndMagic...)
}

// reset empties the encoder for the next segment, keeping its storage.
func (e *segEncoder) reset() {
	e.doms.reset()
	e.labels.reset()
	e.strs.reset()
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	e.records, e.sockets, e.outcomes = 0, 0, 0
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

func (d *segDecoder) counts(vals []string, what string) []analysis.Count {
	marker := d.uv()
	if marker == 0 || !d.fits(marker-1, what) {
		return nil
	}
	out := make([]analysis.Count, marker-1)
	for i := range out {
		out[i] = analysis.Count{Key: d.lookup(vals, what), N: d.sv()}
	}
	return out
}

// decodeSegment validates and deserializes a sealed segment: its page
// records and its outcome rows.
func decodeSegment(data []byte) (seq int, recs []*analysis.PageRecord, rows []Outcome, err error) {
	if len(data) < len(segMagic)+segTailLen {
		return 0, nil, nil, fmt.Errorf("colstore: segment too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, nil, nil, fmt.Errorf("colstore: bad segment magic")
	}
	if string(data[len(data)-8:]) != segEndMagic {
		return 0, nil, nil, fmt.Errorf("colstore: segment missing end magic (torn write)")
	}
	crcOff := len(data) - 12
	want := binary.LittleEndian.Uint32(data[crcOff:])
	if got := crc32.ChecksumIEEE(data[:crcOff]); got != want {
		return 0, nil, nil, fmt.Errorf("colstore: segment checksum mismatch (got %08x, want %08x)", got, want)
	}
	ftr := data[crcOff-24 : crcOff]
	dictsOff := binary.LittleEndian.Uint32(ftr[0:])
	colsOff := binary.LittleEndian.Uint32(ftr[4:])
	records := binary.LittleEndian.Uint32(ftr[8:])
	sockets := binary.LittleEndian.Uint32(ftr[12:])
	outcomes := binary.LittleEndian.Uint32(ftr[16:])
	bodyLen := binary.LittleEndian.Uint32(ftr[20:])
	if int(bodyLen) != crcOff-24 || dictsOff > colsOff || colsOff > bodyLen {
		return 0, nil, nil, fmt.Errorf("colstore: segment footer offsets inconsistent")
	}
	// Every record, socket and outcome row takes at least a byte of
	// columns.
	if cols := bodyLen - colsOff; records > cols || sockets > cols || outcomes > cols {
		return 0, nil, nil, fmt.Errorf("colstore: segment footer claims %d records, %d sockets, %d outcomes in %d column bytes", records, sockets, outcomes, cols)
	}

	d := &segDecoder{data: data[:bodyLen], off: len(segMagic)}
	if v := d.uv(); d.err == nil && v != segVersion {
		return 0, nil, nil, fmt.Errorf("colstore: unsupported segment version %d", v)
	}
	seq = int(d.uv())
	if d.err == nil && d.off != int(dictsOff) {
		return 0, nil, nil, fmt.Errorf("colstore: segment header/footer disagree on dictionary offset")
	}
	doms := d.dict()
	labels := d.dict()
	strs := d.dict()
	if d.err == nil && d.off != int(colsOff) {
		return 0, nil, nil, fmt.Errorf("colstore: segment dictionaries/footer disagree on column offset")
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
		http := make([]analysis.PageTraffic, marker-1)
		for e := range http {
			t := &http[e]
			k := d.lookup(doms, "http key")
			t.Domain = d.lookup(doms, "http domain")
			if d.err == nil && k != t.Domain {
				d.fail("colstore: segment: http entry keyed %q holds domain %q", k, t.Domain)
			}
			t.Requests = d.sv()
			t.ChainsBlocked = d.sv()
			t.SentItems = d.counts(labels, "http sent item")
			t.RecvClasses = d.counts(labels, "http recv class")
		}
		recs[i].HTTP = http
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
	for i := 0; i < n && d.err == nil; i++ {
		if err := recs[i].CheckOrder(); err != nil {
			d.fail("colstore: segment record %d: %v", i, err)
		}
	}
	// outcomes
	rows = make([]Outcome, outcomes)
	for i := range rows {
		o := &rows[i]
		o.Domain = d.lookup(doms, "outcome domain")
		o.Attempt = int(d.uv())
		o.State = OutcomeState(d.byte())
		o.Err = d.lookup(strs, "outcome error")
		if d.err == nil && (o.Attempt < 1 || o.Attempt > maxAttempt || o.State > OutcomeFailed) {
			d.fail("colstore: segment outcome row %d: attempt %d, state %d", i, o.Attempt, o.State)
		}
	}
	if d.err != nil {
		return 0, nil, nil, d.err
	}
	if d.off != len(d.data) {
		return 0, nil, nil, fmt.Errorf("colstore: segment has %d trailing column bytes", len(d.data)-d.off)
	}
	return seq, recs, rows, nil
}

// maxAttempt bounds an outcome row's attempt number, far above any
// attempt budget, so a decoded row's number fits an int everywhere.
const maxAttempt = 1 << 20
