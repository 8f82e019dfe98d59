package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/content"
)

// A spool line has one shape: the one encoding/json gives a PageRecord —
// fields in declaration order, omitempty fields left out, map keys
// sorted, no whitespace — over "plain" strings (printable ASCII, with
// json's \u0026 \u003c \u003e escapes for & < > and no other escape).
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
		e := spoolEnc{b: dst, keys: (*keys)[:0]}
		e.record(rec)
		*keys = e.keys
		keyStacks.Put(keys)
		if !e.bad {
			return append(e.b, '\n'), nil
		}
		dst = e.b[:len(dst)]
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("analysis: encode spool record: %w", err)
	}
	return append(append(dst, data...), '\n'), nil
}

// EncodeSpoolRecord writes rec as one spool line (AppendSpoolRecord) to
// w, through a pooled buffer.
func EncodeSpoolRecord(w io.Writer, rec *PageRecord) error {
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	line, err := AppendSpoolRecord((*bp)[:0], rec)
	*bp = line
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// DecodeSpoolLine parses one spool line back into a PageRecord.
func DecodeSpoolLine(line []byte) (*PageRecord, error) {
	if rec, ok := decodeSpoolFast(line); ok {
		return rec, nil
	}
	var rec PageRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("analysis: decode spool record: %w", err)
	}
	return &rec, nil
}

var (
	// keyStacks pools the encoder's sorted-key scratch.
	keyStacks = sync.Pool{New: func() any { return new([]string) }}
	// lineBufs pools EncodeSpoolRecord's line buffers.
	lineBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// plainByte marks the printable ASCII bytes a string carries verbatim.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\' && c != '&' && c != '<' && c != '>'
	}
	return t
}()

// spoolEnc appends the line; bad is set when a string is not plain.
type spoolEnc struct {
	b    []byte
	keys []string // sorted map keys: a stack, one frame per open map
	bad  bool
}

// Each writer appends pre, the literal the shape puts before the value
// (a key, a separator), and then the value.

func (e *spoolEnc) int(pre string, n int) {
	e.b = strconv.AppendInt(append(e.b, pre...), int64(n), 10)
}

func (e *spoolEnc) bool(pre string, v bool) {
	e.b = strconv.AppendBool(append(e.b, pre...), v)
}

func (e *spoolEnc) str(pre, s string) {
	const hex = "0123456789abcdef"
	e.b = append(append(e.b, pre...), '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if plainByte[c] {
			continue
		}
		if c != '&' && c != '<' && c != '>' {
			e.bad = true
			return
		}
		e.b = append(e.b, s[start:i]...)
		e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		start = i + 1
	}
	e.b = append(append(e.b, s[start:]...), '"')
}

// strs writes a list; nil is null, as json has it for the fields that
// are not omitempty.
func (e *spoolEnc) strs(pre string, v []string) {
	e.b = append(e.b, pre...)
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	sep := "["
	for _, s := range v {
		e.str(sep, s)
		sep = ","
	}
	if len(v) == 0 {
		e.b = append(e.b, '[')
	}
	e.b = append(e.b, ']')
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
	e.b = append(e.b, pre...)
	start, sep := pushKeys(e, m), "{"
	for _, k := range e.keys[start:] {
		e.str(sep, k)
		e.int(":", m[k])
		sep = ","
	}
	e.b = append(e.b, '}')
	e.popKeys(start)
}

func (e *spoolEnc) record(r *PageRecord) {
	e.str(`{"site":`, r.Site)
	e.int(`,"rank":`, r.Rank)
	e.str(`,"pageUrl":`, r.PageURL)
	sep := `,"sockets":[`
	for i := range r.Sockets {
		e.socket(sep, &r.Sockets[i])
		sep = ","
	}
	if len(r.Sockets) > 0 {
		e.b = append(e.b, ']')
	}
	if len(r.HTTP) > 0 {
		// The end is fixed before the loop: the traffic maps push their
		// own keys above it.
		start, end, sep := pushKeys(e, r.HTTP), len(e.keys), `,"http":{`
		for i := start; i < end; i++ {
			e.str(sep, e.keys[i])
			e.traffic(":", r.HTTP[e.keys[i]])
			sep = ","
		}
		e.b = append(e.b, '}')
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
	e.b = append(e.b, '}')
}

func (e *spoolEnc) socket(pre string, s *SocketRecord) {
	e.b = append(e.b, pre...)
	e.str(`{"site":`, s.Site)
	e.int(`,"rank":`, s.Rank)
	e.str(`,"pageUrl":`, s.PageURL)
	e.str(`,"url":`, s.URL)
	e.str(`,"receiver":`, s.ReceiverDomain)
	e.str(`,"initiator":`, s.InitiatorDomain)
	e.strs(`,"chainDomains":`, s.ChainDomains)
	e.strs(`,"chainUrls":`, s.ChainURLs)
	e.bool(`,"crossOrigin":`, s.CrossOrigin)
	e.bool(`,"handshakeOk":`, s.HandshakeOK)
	if len(s.SentItems) > 0 {
		e.strs(`,"sentItems":`, s.SentItems)
	}
	if len(s.RecvClasses) > 0 {
		e.strs(`,"recvClasses":`, s.RecvClasses)
	}
	e.int(`,"framesSent":`, s.FramesSent)
	e.int(`,"framesRecv":`, s.FramesRecv)
	e.bool(`,"chainBlocked":`, s.ChainBlocked)
	if s.AdRefs != 0 {
		e.int(`,"adRefs":`, s.AdRefs)
	}
	if len(s.AdSamples) > 0 {
		e.strs(`,"adSamples":`, s.AdSamples)
	}
	e.b = append(e.b, '}')
}

func (e *spoolEnc) traffic(pre string, t *DomainTraffic) {
	e.b = append(e.b, pre...)
	if t == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.str(`{"domain":`, t.Domain)
	e.int(`,"requests":`, t.Requests)
	if len(t.SentItems) > 0 {
		e.counts(`,"sentItems":`, t.SentItems)
	}
	if len(t.RecvClasses) > 0 {
		e.counts(`,"recvClasses":`, t.RecvClasses)
	}
	e.int(`,"chainsBlocked":`, t.ChainsBlocked)
	e.b = append(e.b, '}')
}

// spoolCur walks a spool line. Every method reports false at the first
// byte outside the shape.
type spoolCur struct {
	b []byte
	i int
	// r is the record being decoded and key the map key read last: the
	// strings name can hand out again instead of copying.
	r   *PageRecord
	key string
}

// decodeSpoolFast decodes line if it has the encoder's shape.
func decodeSpoolFast(line []byte) (*PageRecord, bool) {
	r := &PageRecord{}
	c := &spoolCur{b: line, r: r}
	if !c.lit(`{"site":`) || !c.str(&r.Site) || !c.lit(`,"rank":`) || !c.int(&r.Rank) ||
		!c.lit(`,"pageUrl":`) || !c.str(&r.PageURL) {
		return nil, false
	}
	ok := true
	if c.lit(`,"sockets":[`) {
		r.Sockets, ok = list(c, (*spoolCur).socket)
	}
	if ok && c.lit(`,"http":{`) {
		ok = c.http(&r.HTTP)
	}
	if ok && c.lit(`,"aaObs":{`) {
		ok = c.counts(&r.AAObs)
	}
	if ok && c.lit(`,"nonAaObs":{`) {
		ok = c.counts(&r.NonAAObs)
	}
	if ok && c.lit(`,"cdnObs":{`) {
		ok = c.counts(&r.CDNObs)
	}
	if !ok || !c.lit("}") || c.i != len(line) {
		return nil, false
	}
	return r, true
}

func (c *spoolCur) lit(l string) bool {
	if len(c.b)-c.i < len(l) || string(c.b[c.i:c.i+len(l)]) != l {
		return false
	}
	c.i += len(l)
	return true
}

// maxHint caps the size hint members gives: a hostile line of commas
// must not buy a large allocation before the cursor declines it.
const maxHint = 32

// members sizes the array or object whose opening bracket has been
// consumed: its member count, from its top-level commas, up to maxHint.
// The count is exact for every line the cursor goes on to accept: no
// accepted string holds a quote.
func (c *spoolCur) members() int {
	return min(c.commas()+1, maxHint)
}

// commas counts the top-level commas of the array or object whose
// opening bracket has been consumed.
func (c *spoolCur) commas() int {
	n, depth, b := 0, 0, c.b[c.i:]
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			end := bytes.IndexByte(b[i+1:], '"')
			if end < 0 {
				return n
			}
			i += end + 1
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// list decodes the rest of a non-empty array whose '[' has been
// consumed, its capacity hinted by members.
func list[T any](c *spoolCur, elem func(*spoolCur, *T) bool) ([]T, bool) {
	out := make([]T, 0, c.members())
	for {
		var zero T
		out = append(out, zero)
		if !elem(c, &out[len(out)-1]) {
			return nil, false
		}
		if c.lit("]") {
			return out, true
		}
		if !c.lit(",") {
			return nil, false
		}
	}
}

// member reads the next key of a non-empty object whose '{' has been
// consumed into c.key, with the ',' before it (unless first) and the ':'
// after it. Keys must be strictly increasing, as the encoder sorts them
// (which also rules out duplicates).
func (c *spoolCur) member(first bool) bool {
	prev := c.key
	return (first || c.lit(",")) && c.name(&c.key) && (first || c.key > prev) && c.lit(":")
}

// counts decodes the rest of a non-empty map of counts whose '{' has
// been consumed.
func (c *spoolCur) counts(dst *map[string]int) bool {
	m := make(map[string]int, c.members())
	for first := true; ; first = false {
		var n int
		if !c.member(first) || !c.int(&n) {
			return false
		}
		m[c.key] = n
		if c.lit("}") {
			*dst = m
			return true
		}
	}
}

// http decodes the rest of a non-empty HTTP map whose '{' has been
// consumed.
func (c *spoolCur) http(dst *map[string]*DomainTraffic) bool {
	m := make(map[string]*DomainTraffic, c.members())
	for first := true; ; first = false {
		var t *DomainTraffic
		if !c.member(first) || !c.traffic(&t) {
			return false
		}
		m[c.key] = t
		if c.lit("}") {
			*dst = m
			return true
		}
	}
}

// quoted consumes a plain string and returns its bytes as the line
// holds them, and how many escapes they include.
func (c *spoolCur) quoted() (raw []byte, escapes int, ok bool) {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, 0, false
	}
	start := c.i + 1
	end := start
	for ; end < len(c.b) && c.b[end] != '"'; end++ {
		switch b := c.b[end]; {
		case b == '\\':
			escapes++
		case b < 0x20 || b > 0x7e:
			return nil, 0, false
		}
	}
	if end == len(c.b) {
		return nil, 0, false
	}
	c.i = end + 1
	return c.b[start:end], escapes, true
}

// str copies a plain string out of the line.
func (c *spoolCur) str(dst *string) bool {
	raw, escapes, ok := c.quoted()
	switch {
	case !ok:
		return false
	case escapes > 0:
		return unescape(raw, escapes, dst)
	}
	*dst = string(raw)
	return true
}

// name is str for a string the record most likely holds already — its
// site or page, the map key just read, an HTTP domain, a Table 5 item —
// which it hands out again rather than copying.
func (c *spoolCur) name(dst *string) bool {
	raw, escapes, ok := c.quoted()
	switch {
	case !ok:
		return false
	case escapes > 0:
		return unescape(raw, escapes, dst)
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

// unescape decodes a string whose escapes must all be one of the three.
func unescape(raw []byte, escapes int, dst *string) bool {
	if len(raw) < 6*escapes {
		return false // an escape other than the three
	}
	var sb strings.Builder
	sb.Grow(len(raw) - 5*escapes)
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			sb.WriteByte(raw[i])
			continue
		}
		if len(raw)-i < 6 || string(raw[i:i+4]) != `\u00` {
			return false
		}
		switch string(raw[i+4 : i+6]) {
		case "26":
			sb.WriteByte('&')
		case "3c":
			sb.WriteByte('<')
		case "3e":
			sb.WriteByte('>')
		default:
			return false
		}
		i += 5
	}
	*dst = sb.String()
	return true
}

// int accepts an int in canonical form (no leading zero, no "-0") of at
// most 18 digits, which cannot overflow an int64.
func (c *spoolCur) int(dst *int) bool {
	neg := c.i < len(c.b) && c.b[c.i] == '-'
	if neg {
		c.i++
	}
	start := c.i
	var n int64
	for c.i < len(c.b) && c.i-start < 18 && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
		n = n*10 + int64(c.b[c.i]-'0')
		c.i++
	}
	switch digits := c.i - start; {
	case digits == 0, c.b[start] == '0' && (digits > 1 || neg):
		return false
	case c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9':
		return false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

func (c *spoolCur) bool(dst *bool) bool {
	switch {
	case c.lit("true"):
		*dst = true
	case c.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// names decodes a list of names: null is nil and [] is empty, as json
// has them for the fields that are not omitempty.
func (c *spoolCur) names(dst *[]string) bool {
	switch {
	case c.lit("null"):
		*dst = nil
	case c.lit("[]"):
		*dst = []string{}
	default:
		return c.someNames(dst)
	}
	return true
}

// someNames decodes an omitempty list of names, which is never empty.
func (c *spoolCur) someNames(dst *[]string) bool {
	if !c.lit("[") {
		return false
	}
	var ok bool
	*dst, ok = list(c, (*spoolCur).name)
	return ok
}

func (c *spoolCur) socket(s *SocketRecord) bool {
	if !c.lit(`{"site":`) || !c.name(&s.Site) || !c.lit(`,"rank":`) || !c.int(&s.Rank) ||
		!c.lit(`,"pageUrl":`) || !c.name(&s.PageURL) || !c.lit(`,"url":`) || !c.str(&s.URL) ||
		!c.lit(`,"receiver":`) || !c.name(&s.ReceiverDomain) ||
		!c.lit(`,"initiator":`) || !c.name(&s.InitiatorDomain) ||
		!c.lit(`,"chainDomains":`) || !c.names(&s.ChainDomains) ||
		!c.lit(`,"chainUrls":`) || !c.names(&s.ChainURLs) ||
		!c.lit(`,"crossOrigin":`) || !c.bool(&s.CrossOrigin) ||
		!c.lit(`,"handshakeOk":`) || !c.bool(&s.HandshakeOK) {
		return false
	}
	if c.lit(`,"sentItems":`) && !c.someNames(&s.SentItems) {
		return false
	}
	if c.lit(`,"recvClasses":`) && !c.someNames(&s.RecvClasses) {
		return false
	}
	if !c.lit(`,"framesSent":`) || !c.int(&s.FramesSent) || !c.lit(`,"framesRecv":`) || !c.int(&s.FramesRecv) ||
		!c.lit(`,"chainBlocked":`) || !c.bool(&s.ChainBlocked) {
		return false
	}
	// adRefs is omitted when zero, so a present one is not.
	if c.lit(`,"adRefs":`) && (!c.int(&s.AdRefs) || s.AdRefs == 0) {
		return false
	}
	if c.lit(`,"adSamples":[`) {
		var ok bool
		if s.AdSamples, ok = list(c, (*spoolCur).str); !ok {
			return false
		}
	}
	return c.lit("}")
}

func (c *spoolCur) traffic(dst **DomainTraffic) bool {
	if c.lit("null") {
		*dst = nil
		return true
	}
	t := &DomainTraffic{}
	if !c.lit(`{"domain":`) || !c.name(&t.Domain) || !c.lit(`,"requests":`) || !c.int(&t.Requests) {
		return false
	}
	// The traffic maps' keys must not clobber the HTTP key the caller
	// checks the next one against.
	key := c.key
	if c.lit(`,"sentItems":{`) && !c.counts(&t.SentItems) ||
		c.lit(`,"recvClasses":{`) && !c.counts(&t.RecvClasses) {
		return false
	}
	c.key = key
	if !c.lit(`,"chainsBlocked":`) || !c.int(&t.ChainsBlocked) || !c.lit("}") {
		return false
	}
	*dst = t
	return true
}
