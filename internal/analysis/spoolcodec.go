package analysis

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/content"
	"repro/internal/jsonshape"
)

// A spool line has one shape: the one encoding/json gives a PageRecord —
// fields in declaration order, omitempty fields left out, map keys
// sorted, no whitespace — over package jsonshape's plain strings.
// AppendSpoolRecord writes and DecodeSpoolLine reads exactly that shape
// by hand, as the script codec does a program literal; any other record
// or line goes to encoding/json, so for every input the bytes and the
// decoded records are the standard library's (FuzzSpoolCodecMatchesJSON).
// Decoded strings are copies: the fold keeps them, and must not keep the
// line they came from alive.

// AppendSpoolRecord appends rec's spool line, newline included, to dst.
// The encoding is deterministic (map keys are sorted), so identical
// crawls produce byte-identical spool lines.
func AppendSpoolRecord(dst []byte, rec *PageRecord) ([]byte, error) {
	if rec != nil {
		keys := keyStacks.Get().(*[]string)
		e := spoolEnc{Writer: jsonshape.Writer{B: dst}, keys: (*keys)[:0]}
		e.record(rec)
		*keys = e.keys
		keyStacks.Put(keys)
		if !e.Bad {
			return append(e.B, '\n'), nil
		}
		dst = e.B[:len(dst)]
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("analysis: encode spool record: %w", err)
	}
	return append(append(dst, data...), '\n'), nil
}

// DecodeSpoolLine parses one spool line back into a PageRecord.
func DecodeSpoolLine(line []byte) (*PageRecord, error) {
	return (*SpoolDecoder)(nil).Decode(line)
}

// A SpoolDecoder is DecodeSpoolLine for a caller that folds each record
// and drops it (Folder.Fold keeps no map of a record): it decodes into
// one record whose maps and HTTP entries it recycles, so they are valid
// only until the next Decode. Strings and socket lists are fresh, as
// DecodeSpoolLine's are. A SpoolDecoder is not safe for concurrent use;
// the nil one recycles nothing.
type SpoolDecoder struct {
	rec               PageRecord
	http              map[string]*DomainTraffic
	traffic           []*DomainTraffic // HTTP entries: the first nTraffic are in use
	counts            []map[string]int // count maps: the first nCounts are in use
	nTraffic, nCounts int
}

// Decode parses one spool line.
func (d *SpoolDecoder) Decode(line []byte) (*PageRecord, error) {
	if rec, ok := decodeSpoolFast(line, d); ok {
		return rec, nil
	}
	var rec PageRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("analysis: decode spool record: %w", err)
	}
	return &rec, nil
}

// keyStacks pools the encoder's sorted-key scratch.
var keyStacks = sync.Pool{New: func() any { return new([]string) }}

// spoolEnc appends the line.
type spoolEnc struct {
	jsonshape.Writer
	keys []string // sorted map keys: a stack, one frame per open map
}

// pushKeys pushes m's keys, sorted, onto the key stack and returns the
// index of the first; popKeys(start) drops them again.
func pushKeys[V any](e *spoolEnc, m map[string]V) int {
	start := len(e.keys)
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys[start:])
	return start
}

func (e *spoolEnc) popKeys(start int) {
	clear(e.keys[start:])
	e.keys = e.keys[:start]
}

// counts writes a non-empty map of counts.
func (e *spoolEnc) counts(pre string, m map[string]int) {
	e.Lit(pre)
	start, sep := pushKeys(e, m), "{"
	for _, k := range e.keys[start:] {
		e.Str(sep, k)
		e.Int(":", m[k])
		sep = ","
	}
	e.Lit("}")
	e.popKeys(start)
}

func (e *spoolEnc) record(r *PageRecord) {
	e.Str(`{"site":`, r.Site)
	e.Int(`,"rank":`, r.Rank)
	e.Str(`,"pageUrl":`, r.PageURL)
	sep := `,"sockets":[`
	for i := range r.Sockets {
		e.socket(sep, &r.Sockets[i])
		sep = ","
	}
	if len(r.Sockets) > 0 {
		e.Lit("]")
	}
	if len(r.HTTP) > 0 {
		// The end is fixed before the loop: the traffic maps push their
		// own keys above it.
		start, end, sep := pushKeys(e, r.HTTP), len(e.keys), `,"http":{`
		for i := start; i < end; i++ {
			e.Str(sep, e.keys[i])
			e.traffic(":", r.HTTP[e.keys[i]])
			sep = ","
		}
		e.Lit("}")
		e.popKeys(start)
	}
	if len(r.AAObs) > 0 {
		e.counts(`,"aaObs":`, r.AAObs)
	}
	if len(r.NonAAObs) > 0 {
		e.counts(`,"nonAaObs":`, r.NonAAObs)
	}
	if len(r.CDNObs) > 0 {
		e.counts(`,"cdnObs":`, r.CDNObs)
	}
	e.Lit("}")
}

func (e *spoolEnc) socket(pre string, s *SocketRecord) {
	e.Lit(pre)
	e.Str(`{"site":`, s.Site)
	e.Int(`,"rank":`, s.Rank)
	e.Str(`,"pageUrl":`, s.PageURL)
	e.Str(`,"url":`, s.URL)
	e.Str(`,"receiver":`, s.ReceiverDomain)
	e.Str(`,"initiator":`, s.InitiatorDomain)
	e.Strs(`,"chainDomains":`, s.ChainDomains)
	e.Strs(`,"chainUrls":`, s.ChainURLs)
	e.Bool(`,"crossOrigin":`, s.CrossOrigin)
	e.Bool(`,"handshakeOk":`, s.HandshakeOK)
	if len(s.SentItems) > 0 {
		e.Strs(`,"sentItems":`, s.SentItems)
	}
	if len(s.RecvClasses) > 0 {
		e.Strs(`,"recvClasses":`, s.RecvClasses)
	}
	e.Int(`,"framesSent":`, s.FramesSent)
	e.Int(`,"framesRecv":`, s.FramesRecv)
	e.Bool(`,"chainBlocked":`, s.ChainBlocked)
	if s.AdRefs != 0 {
		e.Int(`,"adRefs":`, s.AdRefs)
	}
	if len(s.AdSamples) > 0 {
		e.Strs(`,"adSamples":`, s.AdSamples)
	}
	e.Lit("}")
}

func (e *spoolEnc) traffic(pre string, t *DomainTraffic) {
	e.Lit(pre)
	if t == nil {
		e.Lit("null")
		return
	}
	e.Str(`{"domain":`, t.Domain)
	e.Int(`,"requests":`, t.Requests)
	if len(t.SentItems) > 0 {
		e.counts(`,"sentItems":`, t.SentItems)
	}
	if len(t.RecvClasses) > 0 {
		e.counts(`,"recvClasses":`, t.RecvClasses)
	}
	e.Int(`,"chainsBlocked":`, t.ChainsBlocked)
	e.Lit("}")
}

// spoolCur walks a spool line.
type spoolCur struct {
	jsonshape.Cursor[[]byte]
	// r is the record being decoded and key the map key read last: the
	// strings name can hand out again instead of copying.
	r   *PageRecord
	key string
	d   *SpoolDecoder // recycles r's maps; nil makes them
}

// decodeSpoolFast decodes line if it has the encoder's shape, into d's
// record (a fresh one when d is nil).
func decodeSpoolFast(line []byte, d *SpoolDecoder) (*PageRecord, bool) {
	var r *PageRecord
	if d != nil {
		d.rec, d.nTraffic, d.nCounts = PageRecord{}, 0, 0
		r = &d.rec
	} else {
		r = &PageRecord{}
	}
	c := &spoolCur{Cursor: jsonshape.Cursor[[]byte]{S: line}, r: r, d: d}
	if !c.Lit(`{"site":`) || !c.Str(&r.Site) || !c.Lit(`,"rank":`) || !c.Int(&r.Rank) ||
		!c.Lit(`,"pageUrl":`) || !c.Str(&r.PageURL) {
		return nil, false
	}
	ok := true
	if c.Lit(`,"sockets":[`) {
		r.Sockets, ok = jsonshape.List(&c.Cursor, c.socket)
	}
	if ok && c.Lit(`,"http":{`) {
		var http map[string]*DomainTraffic
		if d != nil {
			if d.http == nil {
				d.http = map[string]*DomainTraffic{}
			}
			clear(d.http)
			http = d.http
		}
		r.HTTP, ok = object(c, http, c.traffic)
	}
	if ok && c.Lit(`,"aaObs":{`) {
		r.AAObs, ok = object(c, c.countMap(), c.count)
	}
	if ok && c.Lit(`,"nonAaObs":{`) {
		r.NonAAObs, ok = object(c, c.countMap(), c.count)
	}
	if ok && c.Lit(`,"cdnObs":{`) {
		r.CDNObs, ok = object(c, c.countMap(), c.count)
	}
	if !ok || !c.Lit("}") || !c.Done() {
		return nil, false
	}
	return r, true
}

// member reads the next key of a non-empty object whose '{' has been
// consumed into c.key, with the ',' before it (unless first) and the ':'
// after it. Keys must be strictly increasing, as the encoder sorts them
// (which also rules out duplicates).
func (c *spoolCur) member(first bool) bool {
	prev := c.key
	return (first || c.Lit(",")) && c.name(&c.key) && (first || c.key > prev) && c.Lit(":")
}

// object decodes the rest of a non-empty map whose '{' has been
// consumed into m (a new map when nil), elem reading each value.
func object[V any](c *spoolCur, m map[string]V, elem func() (V, bool)) (map[string]V, bool) {
	if m == nil {
		m = make(map[string]V, c.Hint())
	}
	for first := true; ; first = false {
		if !c.member(first) {
			return nil, false
		}
		v, ok := elem()
		if !ok {
			return nil, false
		}
		m[c.key] = v
		if c.Lit("}") {
			return m, true
		}
	}
}

// countMap is the empty map object fills with counts: the decoder's
// next recycled one, or nil (a new one) without a decoder.
func (c *spoolCur) countMap() map[string]int {
	d := c.d
	if d == nil {
		return nil
	}
	if d.nCounts == len(d.counts) {
		d.counts = append(d.counts, map[string]int{})
	}
	m := d.counts[d.nCounts]
	d.nCounts++
	clear(m)
	return m
}

// count reads a value of a map of counts.
func (c *spoolCur) count() (n int, ok bool) {
	ok = c.Int(&n)
	return n, ok
}

// name is Str for a string the record most likely holds already — its
// site or page, the map key just read, an HTTP domain, a Table 5 item —
// which it hands out again rather than copying.
func (c *spoolCur) name(dst *string) bool {
	raw, escapes, ok := c.Quoted()
	switch {
	case !ok:
		return false
	case escapes > 0:
		*dst, ok = jsonshape.Unescape(raw, escapes)
		return ok
	case string(raw) == c.r.Site:
		*dst = c.r.Site
	case string(raw) == c.r.PageURL:
		*dst = c.r.PageURL
	case string(raw) == c.key:
		*dst = c.key
	default:
		if t := c.r.HTTP[string(raw)]; t != nil && t.Domain == string(raw) {
			*dst = t.Domain
		} else if item, ok := tableItems[string(raw)]; ok {
			*dst = item
		} else {
			*dst = string(raw)
		}
	}
	return true
}

// tableItems holds the Table 5 item names, which nearly every HTTP
// domain and socket of a record lists.
var tableItems = func() map[string]string {
	m := map[string]string{}
	for _, s := range content.SentItemOrder {
		m[s] = s
	}
	for _, s := range content.ReceivedItemOrder {
		m[s] = s
	}
	return m
}()

// names decodes a list of names: null is nil and [] is empty, as json
// has them for the fields that are not omitempty.
func (c *spoolCur) names(dst *[]string) bool {
	switch {
	case c.Lit("null"):
		*dst = nil
	case c.Lit("[]"):
		*dst = []string{}
	default:
		return c.someNames(dst)
	}
	return true
}

// someNames decodes an omitempty list of names, which is never empty.
func (c *spoolCur) someNames(dst *[]string) bool {
	if !c.Lit("[") {
		return false
	}
	var ok bool
	*dst, ok = jsonshape.List(&c.Cursor, c.name)
	return ok
}

func (c *spoolCur) socket(s *SocketRecord) bool {
	if !c.Lit(`{"site":`) || !c.name(&s.Site) || !c.Lit(`,"rank":`) || !c.Int(&s.Rank) ||
		!c.Lit(`,"pageUrl":`) || !c.name(&s.PageURL) || !c.Lit(`,"url":`) || !c.Str(&s.URL) ||
		!c.Lit(`,"receiver":`) || !c.name(&s.ReceiverDomain) ||
		!c.Lit(`,"initiator":`) || !c.name(&s.InitiatorDomain) ||
		!c.Lit(`,"chainDomains":`) || !c.names(&s.ChainDomains) ||
		!c.Lit(`,"chainUrls":`) || !c.names(&s.ChainURLs) ||
		!c.Lit(`,"crossOrigin":`) || !c.Bool(&s.CrossOrigin) ||
		!c.Lit(`,"handshakeOk":`) || !c.Bool(&s.HandshakeOK) {
		return false
	}
	if c.Lit(`,"sentItems":`) && !c.someNames(&s.SentItems) {
		return false
	}
	if c.Lit(`,"recvClasses":`) && !c.someNames(&s.RecvClasses) {
		return false
	}
	if !c.Lit(`,"framesSent":`) || !c.Int(&s.FramesSent) || !c.Lit(`,"framesRecv":`) || !c.Int(&s.FramesRecv) ||
		!c.Lit(`,"chainBlocked":`) || !c.Bool(&s.ChainBlocked) {
		return false
	}
	// adRefs is omitted when zero, so a present one is not.
	if c.Lit(`,"adRefs":`) && (!c.Int(&s.AdRefs) || s.AdRefs == 0) {
		return false
	}
	if c.Lit(`,"adSamples":[`) {
		var ok bool
		if s.AdSamples, ok = jsonshape.List(&c.Cursor, c.Str); !ok {
			return false
		}
	}
	return c.Lit("}")
}

func (c *spoolCur) traffic() (*DomainTraffic, bool) {
	if c.Lit("null") {
		return nil, true
	}
	t := &DomainTraffic{}
	if d := c.d; d != nil {
		if d.nTraffic == len(d.traffic) {
			d.traffic = append(d.traffic, t)
		}
		t = d.traffic[d.nTraffic]
		d.nTraffic++
		*t = DomainTraffic{}
	}
	if !c.Lit(`{"domain":`) || !c.name(&t.Domain) || !c.Lit(`,"requests":`) || !c.Int(&t.Requests) {
		return nil, false
	}
	// The traffic maps' keys must not clobber the HTTP key the caller
	// checks the next one against.
	key, ok := c.key, true
	if c.Lit(`,"sentItems":{`) {
		t.SentItems, ok = object(c, c.countMap(), c.count)
	}
	if ok && c.Lit(`,"recvClasses":{`) {
		t.RecvClasses, ok = object(c, c.countMap(), c.count)
	}
	c.key = key
	if !ok || !c.Lit(`,"chainsBlocked":`) || !c.Int(&t.ChainsBlocked) || !c.Lit("}") {
		return nil, false
	}
	return t, true
}
