// Package content classifies network payloads the way the paper's
// authors did with a hand-built library of regular expressions (§4.3):
// detecting PII and fingerprinting state in sent data (Table 5, top) and
// classifying received content (Table 5, bottom).
//
// The detectors work on raw bytes and headers — they do not share code
// with the payload generator, so the pipeline genuinely has to find
// cookies, fingerprints, and DOM dumps by pattern matching.
//
// The patterns are written out as hand scanners: they run ~30 times per
// crawled page, and a backtracking regexp engine was the largest
// non-GC CPU layer of a study page. The regular expressions they
// replace are the specification; they live on in oracle_test.go, where
// differential and fuzz tests hold the scanners to them item for item.
package content

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// SentItem names in Table 5 order.
const (
	SentUserAgent   = "User Agent"
	SentCookie      = "Cookie"
	SentIP          = "IP"
	SentUserID      = "User ID"
	SentDevice      = "Device"
	SentScreen      = "Screen"
	SentBrowser     = "Browser"
	SentViewport    = "Viewport"
	SentScroll      = "Scroll Position"
	SentOrientation = "Orientation"
	SentFirstSeen   = "First Seen"
	SentResolution  = "Resolution"
	SentLanguage    = "Language"
	SentDOM         = "DOM"
	SentBinary      = "Binary"
)

// SentItemOrder is the display order used by Table 5.
var SentItemOrder = []string{
	SentUserAgent, SentCookie, SentIP, SentUserID, SentDevice,
	SentScreen, SentBrowser, SentViewport, SentScroll, SentOrientation,
	SentFirstSeen, SentResolution, SentLanguage, SentDOM, SentBinary,
}

// ReceivedItem names in Table 5 order.
const (
	RecvHTML       = "HTML"
	RecvJSON       = "JSON"
	RecvJavaScript = "JavaScript"
	RecvImage      = "Image"
	RecvBinary     = "Binary"
)

// ReceivedItemOrder is the display order used by Table 5.
var ReceivedItemOrder = []string{RecvHTML, RecvJSON, RecvJavaScript, RecvImage, RecvBinary}

// DetectSent returns the set of Table 5 sent-items present in one
// payload. Binary (non-UTF-8) payloads yield only SentBinary, mirroring
// the paper's undecodable 1%.
func DetectSent(data []byte) []string {
	return AppendSent(nil, data)
}

// sentSet is a set of sent items: bit i is SentItemOrder[i].
type sentSet uint16

const (
	bitUserAgent sentSet = 1 << iota
	bitCookie
	bitIP
	bitUserID
	bitDevice
	bitScreen
	bitBrowser
	bitViewport
	bitScroll
	bitOrientation
	bitFirstSeen
	bitResolution
	bitLanguage
	bitDOM
)

// AppendSent is DetectSent with caller-owned storage: detected items are
// appended to dst, which hot paths reuse across pages to keep the ~30
// detector calls per page from each allocating a fresh slice. Items and
// their order are identical to DetectSent.
func AppendSent(dst []string, data []byte) []string {
	if len(data) == 0 {
		return dst
	}
	if !utf8.Valid(data) {
		return append(dst, SentBinary)
	}
	found, dom := scanFields(data)
	if found&bitUserAgent == 0 && hasBrowserUA(data) {
		found |= bitUserAgent
	}
	if found&bitCookie == 0 && hasCookiePair(data) {
		found |= bitCookie
	}
	// Only the first dom= field counts; a payload without one is a DOM
	// dump when it is itself a whole document.
	if len(dom) > 0 {
		decoded := make([]byte, base64.StdEncoding.DecodedLen(len(dom)))
		if n, err := base64.StdEncoding.Decode(decoded, dom); err == nil && looksLikeHTML(decoded[:n]) {
			found |= bitDOM
		}
	} else if looksLikeFullDocument(data) {
		found |= bitDOM
	}
	for i := 0; found != 0; i, found = i+1, found>>1 {
		if found&1 != 0 {
			dst = append(dst, SentItemOrder[i])
		}
	}
	return dst
}

// scanFields finds the key=value sent items. A field starts at the
// beginning of the payload or right after '&', '?' or ';'; its key is
// one of a fixed vocabulary, followed by '=' and a value whose first
// bytes have the item's shape. dom is the (non-empty) base64 run of the
// first dom= field that has one.
func scanFields(data []byte) (found sentSet, dom []byte) {
	for p := 0; ; p++ {
		f := data[p:]
		k := 0
		for k < len(f) && (f[k] == '_' || 'a' <= f[k] && f[k] <= 'z') {
			k++
		}
		if k > 0 && k < len(f) && f[k] == '=' {
			v := f[k+1:]
			switch string(f[:k]) {
			case "ua":
				found |= bitUserAgent
			case "cookie":
				found |= bitCookie
			case "client_ip", "ip", "ip_addr", "remote_addr":
				if isDottedQuad(v) {
					found |= bitIP
				}
			case "user_id", "client_id", "account_id", "uid", "visitor_id":
				if startsToken(v) || hasPrefix(v, ".") {
					found |= bitUserID
				}
			case "device_type", "device_family", "device":
				if startsToken(v) {
					found |= bitDevice
				}
			case "screen":
				if isDimensions(v) {
					found |= bitScreen
				}
			case "browser_type", "browser_family", "browser":
				if startsToken(v) {
					found |= bitBrowser
				}
			case "viewport":
				if isDimensions(v) {
					found |= bitViewport
				}
			case "scroll_pos", "scroll_y", "scroll":
				if len(v) > 0 && isDigit(v[0]) {
					found |= bitScroll
				}
			case "orientation":
				if hasPrefix(v, "landscape") || hasPrefix(v, "portrait") {
					found |= bitOrientation
				}
			case "first_seen", "firstseen", "created_at":
				if isDate(v) {
					found |= bitFirstSeen
				}
			case "resolution":
				if isDimensions(v) {
					found |= bitResolution
				}
			case "lang", "language", "locale":
				if len(v) >= 2 && isLower(v[0]) && isLower(v[1]) {
					found |= bitLanguage
				}
			case "dom":
				if len(dom) == 0 {
					dom = v[:base64Run(v)]
				}
			}
		}
		// The key run holds no separator, so the next field starts
		// after the first one at or beyond it.
		p += k
		for p < len(data) && data[p] != '&' && data[p] != '?' && data[p] != ';' {
			p++
		}
		if p >= len(data) {
			return found, dom
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isLower(c byte) bool { return 'a' <= c && c <= 'z' }
func isAlpha(c byte) bool { return isLower(c) || 'A' <= c && c <= 'Z' }
func isWord(c byte) bool  { return isAlpha(c) || isDigit(c) || c == '_' }

// isSpace is the regexp class \s: ASCII whitespace without \v.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// hasPrefix is bytes.HasPrefix against a string, without converting it.
func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// startsToken reports whether v starts with a byte of [\w-].
func startsToken(v []byte) bool {
	return len(v) > 0 && (isWord(v[0]) || v[0] == '-')
}

func skipSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	return b
}

// digitRun returns the length of the leading run of digits.
func digitRun(b []byte) int {
	n := 0
	for n < len(b) && isDigit(b[n]) {
		n++
	}
	return n
}

// isDottedQuad reports whether v starts d{1,3}.d{1,3}.d{1,3}.d{1,3}.
func isDottedQuad(v []byte) bool {
	for octet := 0; octet < 3; octet++ {
		n := digitRun(v)
		if n < 1 || n > 3 || n >= len(v) || v[n] != '.' {
			return false
		}
		v = v[n+1:]
	}
	return len(v) > 0 && isDigit(v[0])
}

// isDimensions reports whether v starts <digits>x<digits>.
func isDimensions(v []byte) bool {
	n := digitRun(v)
	return n > 0 && n+1 < len(v) && v[n] == 'x' && isDigit(v[n+1])
}

// isDate reports whether v starts dddd-dd-dd.
func isDate(v []byte) bool {
	if len(v) < 10 {
		return false
	}
	for i, c := range v[:10] {
		if i == 4 || i == 7 {
			if c != '-' {
				return false
			}
		} else if !isDigit(c) {
			return false
		}
	}
	return true
}

// base64Run returns the length of the leading run of standard-alphabet
// base64 bytes, padding included.
func base64Run(v []byte) int {
	n := 0
	for n < len(v) && (isAlpha(v[n]) || isDigit(v[n]) || v[n] == '+' || v[n] == '/' || v[n] == '=') {
		n++
	}
	return n
}

var mozillaPrefix = []byte("Mozilla/")

// hasBrowserUA finds a browser User-Agent string anywhere in the
// payload: "Mozilla/d.d (" and, somewhere after it, the closing ")".
func hasBrowserUA(data []byte) bool {
	for {
		i := bytes.Index(data, mozillaPrefix)
		if i < 0 {
			return false
		}
		data = data[i+len(mozillaPrefix):]
		if len(data) >= 5 && isDigit(data[0]) && data[1] == '.' && isDigit(data[2]) && data[3] == ' ' && data[4] == '(' {
			// No ")" after this one means none after any later one.
			return bytes.IndexByte(data[5:], ')') >= 0
		}
	}
}

// hasCookiePair finds a Cookie-header-shaped run: at the start of the
// payload or after ";" and optional space, name=value, then ";",
// optional space, and the first letter of another name.
func hasCookiePair(data []byte) bool {
	for {
		if cookiePairAt(data) {
			return true
		}
		i := bytes.IndexByte(data, ';')
		if i < 0 {
			return false
		}
		data = skipSpace(data[i+1:])
	}
}

func cookiePairAt(f []byte) bool {
	if len(f) == 0 || !(isAlpha(f[0]) || f[0] == '_') {
		return false
	}
	i := 1
	for i < len(f) && (isWord(f[i]) || f[i] == '.') {
		i++
	}
	if i >= len(f) || f[i] != '=' {
		return false
	}
	i++
	valueStart := i
	for i < len(f) && (isWord(f[i]) || f[i] == '%' || f[i] == '.' || f[i] == ':' || f[i] == '-') {
		i++
	}
	if i == valueStart || i >= len(f) || f[i] != ';' {
		return false
	}
	next := skipSpace(f[i+1:])
	return len(next) > 0 && (isAlpha(next[0]) || next[0] == '_')
}

// AppendSentHeaders inspects request/handshake headers for sent items
// (the reason Table 5 reports User Agent at 100%: every handshake
// carries one). Mirroring AppendSent, detected items append to dst in
// the same fixed Table 5 order.
func AppendSentHeaders(dst []string, header map[string]string) []string {
	// Scan the map into flags first, then emit in fixed Table 5 order:
	// appending inside the range would make the item order depend on
	// map iteration when several headers match.
	var ua, cookie, lang bool
	for k, v := range header {
		if v == "" {
			continue
		}
		switch {
		case strings.EqualFold(k, "user-agent"):
			ua = true
		case strings.EqualFold(k, "cookie"):
			cookie = true
		case strings.EqualFold(k, "accept-language"):
			lang = true
		}
	}
	if ua {
		dst = append(dst, SentUserAgent)
	}
	if cookie {
		dst = append(dst, SentCookie)
	}
	if lang {
		dst = append(dst, SentLanguage)
	}
	return dst
}

// MergeItems unions item slices, preserving Table 5 order.
func MergeItems(sets ...[]string) []string {
	present := map[string]bool{}
	for _, set := range sets {
		for _, item := range set {
			present[item] = true
		}
	}
	var out []string
	for _, item := range SentItemOrder {
		if present[item] {
			out = append(out, item)
		}
	}
	// Preserve any received-item names callers merged through here.
	for _, item := range ReceivedItemOrder {
		if present[item] {
			out = append(out, item)
		}
	}
	return out
}

// looksLikeHTML reports whether b, trimmed, opens like markup: a
// doctype, an <html> tag, or any tag followed somewhere by a closing one.
func looksLikeHTML(b []byte) bool {
	b = bytes.TrimSpace(b)
	return hasPrefixFold(b, "<!doctype html") || hasPrefixFold(b, "<html") ||
		(len(b) > 0 && b[0] == '<' && bytes.Contains(b, closeTagOpen))
}

var closeTagOpen = []byte("</")

func looksLikeFullDocument(b []byte) bool {
	return containsTagFold(b, "<html") && containsTagFold(b, "<body")
}

// hasPrefixFold reports whether b starts with the lower-case ASCII
// string prefix, ignoring ASCII case. (Unicode folding would add only
// U+0130 and U+212A, for the letters i and k; no prefix used here has
// either.)
func hasPrefixFold(b []byte, prefix string) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// containsTagFold reports whether b contains tag — "<" plus a
// lower-case ASCII name — ignoring ASCII case.
func containsTagFold(b []byte, tag string) bool {
	for {
		i := bytes.IndexByte(b, '<')
		if i < 0 {
			return false
		}
		if hasPrefixFold(b[i:], tag) {
			return true
		}
		b = b[i+1:]
	}
}

// Image magic numbers.
var (
	magicGIF  = []byte("GIF8")
	magicPNG  = []byte("\x89PNG")
	magicJPEG = []byte("\xFF\xD8\xFF")
)

// IsImage reports whether data starts with a known image signature.
func IsImage(data []byte) bool {
	return bytes.HasPrefix(data, magicGIF) || bytes.HasPrefix(data, magicPNG) || bytes.HasPrefix(data, magicJPEG)
}

// ClassifyReceived assigns one Table 5 received-item class to a payload,
// or "" for empty data. Precedence: image signatures, then binary, then
// JSON, then HTML, then JavaScript; everything else counts as HTML-free
// text and returns "".
func ClassifyReceived(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	if IsImage(data) {
		return RecvImage
	}
	if !utf8.Valid(data) {
		return RecvBinary
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') && json.Valid(trimmed) {
		return RecvJSON
	}
	if looksLikeHTML(trimmed) {
		return RecvHTML
	}
	if looksLikeJS(trimmed) {
		return RecvJavaScript
	}
	return ""
}

// looksLikeJS reports whether b opens, after optional space, like a
// script: an IIFE, a function or var declaration, !function, window.,
// or a "use strict" directive.
func looksLikeJS(b []byte) bool {
	b = skipSpace(b)
	switch {
	case hasPrefix(b, "(function"):
		return hasPrefix(skipSpace(b[len("(function"):]), "(")
	case hasPrefix(b, "function"):
		return declares(b[len("function"):], '(')
	case hasPrefix(b, "var"):
		return declares(b[len("var"):], '=')
	}
	return hasPrefix(b, "!function") || hasPrefix(b, "window.") ||
		hasPrefix(b, `"use strict"`)
}

// declares reports whether b is space, an identifier, optional space,
// then the byte then.
func declares(b []byte, then byte) bool {
	name := skipSpace(b)
	if len(name) == len(b) {
		return false
	}
	n := 0
	for n < len(name) && isWord(name[n]) {
		n++
	}
	rest := skipSpace(name[n:])
	return n > 0 && len(rest) > 0 && rest[0] == then
}

// AdRef is one ad-creative reference extracted from a payload.
type AdRef struct {
	ImageURL string
	Caption  string
	Width    int
	Height   int
}

var adRefOpen = []byte(`"img"`)

// ExtractAdRefs pulls ad-creative references out of a received payload:
// ad-image URL metadata inside JSON — the Lockerdome pattern from §4.3,
// URLs to creatives plus caption and dimension metadata, as the member
// run "img":"http(s)://…","caption":"…","width":N,"height":N with
// optional space around the punctuation.
func ExtractAdRefs(data []byte) []AdRef {
	if !utf8.Valid(data) {
		return nil
	}
	var out []AdRef
	for {
		i := bytes.Index(data, adRefOpen)
		if i < 0 {
			return out
		}
		if ref, n := adRefAt(data[i:]); n > 0 {
			out = append(out, ref)
			data = data[i+n:]
		} else {
			data = data[i+1:]
		}
	}
}

// adRefAt parses one ad reference at the start of b, returning it and
// the bytes it spans, or 0 when b does not start with one.
func adRefAt(b []byte) (AdRef, int) {
	c := cursor{rest: b, ok: true}
	c.lit(`"img"`)
	c.punct(':')
	img := c.quoted()
	c.punct(',')
	c.lit(`"caption"`)
	c.punct(':')
	caption := c.quoted()
	c.punct(',')
	c.lit(`"width"`)
	c.punct(':')
	width := c.number()
	c.punct(',')
	c.lit(`"height"`)
	c.punct(':')
	height := c.number()
	isURL := hasPrefix(img, "http://") && len(img) > len("http://") ||
		hasPrefix(img, "https://") && len(img) > len("https://")
	if !c.ok || !isURL {
		return AdRef{}, 0
	}
	return AdRef{
		ImageURL: string(img),
		Caption:  string(caption),
		Width:    atoiSafe(width),
		Height:   atoiSafe(height),
	}, len(b) - len(c.rest)
}

// cursor consumes a byte slice token by token; the first token that
// does not match clears ok and every later call is a no-op.
type cursor struct {
	rest []byte
	ok   bool
}

func (c *cursor) lit(s string) {
	if c.ok = c.ok && hasPrefix(c.rest, s); c.ok {
		c.rest = c.rest[len(s):]
	}
}

// punct consumes optional space, the byte p, optional space.
func (c *cursor) punct(p byte) {
	rest := skipSpace(c.rest)
	if c.ok = c.ok && len(rest) > 0 && rest[0] == p; c.ok {
		c.rest = skipSpace(rest[1:])
	}
}

// quoted consumes a double-quoted run and returns its inside.
func (c *cursor) quoted() []byte {
	if c.ok = c.ok && len(c.rest) > 0 && c.rest[0] == '"'; !c.ok {
		return nil
	}
	end := bytes.IndexByte(c.rest[1:], '"')
	if c.ok = end >= 0; !c.ok {
		return nil
	}
	inside := c.rest[1 : 1+end]
	c.rest = c.rest[end+2:]
	return inside
}

// number consumes a non-empty run of digits.
func (c *cursor) number() []byte {
	n := digitRun(c.rest)
	if c.ok = c.ok && n > 0; !c.ok {
		return nil
	}
	digits := c.rest[:n]
	c.rest = c.rest[n:]
	return digits
}

func atoiSafe(s []byte) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}
