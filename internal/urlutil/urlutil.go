// Package urlutil provides URL and domain-name helpers used throughout the
// measurement pipeline: scheme classification, registrable ("2nd-level")
// domain extraction, and origin/party comparisons.
//
// The paper aggregates hosts by their 2nd-level domain (for example both
// x.doubleclick.net and y.doubleclick.net count as doubleclick.net), so the
// registrable-domain logic here is the foundation of every table.
package urlutil

import (
	"fmt"
	"net/url"
	"strings"
)

// URL is a parsed absolute URL. It wraps the standard library parser with
// the accessors the pipeline needs (registrable domain, origin, WebSocket
// scheme detection) precomputed.
type URL struct {
	// Raw is the original string the URL was parsed from.
	Raw string
	// Scheme is the lower-cased scheme ("http", "https", "ws", "wss").
	Scheme string
	// Host is the lower-cased host without port.
	Host string
	// Port is the explicit port, or "" if none was given.
	Port string
	// Path is the path component ("/" if empty).
	Path string
	// Query is the raw query string without the leading "?".
	Query string

	// str memoizes String() when the parsed input is already in
	// canonical form. It is set only during Parse, before the URL is
	// shared, so later concurrent String() calls stay race-free.
	str string
}

// Parse parses an absolute URL. It rejects relative references and URLs
// without a host, since every resource in a crawl trace must be absolute.
//
// Simple URLs — lowercase scheme and host, no userinfo, no fragment, no
// percent-escapes, nothing the standard library would re-encode — take a
// single-allocation fast path; anything else falls back to net/url. The
// two paths produce identical URL values for every input the fast path
// accepts (TestParseFastMatchesStd).
func Parse(raw string) (*URL, error) {
	if u, ok := parseFast(raw); ok {
		return u, nil
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("urlutil: parse %q: %w", raw, err)
	}
	if u.Scheme == "" {
		return nil, fmt.Errorf("urlutil: parse %q: missing scheme", raw)
	}
	if u.Hostname() == "" {
		return nil, fmt.Errorf("urlutil: parse %q: missing host", raw)
	}
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	return &URL{
		Raw:    raw,
		Scheme: strings.ToLower(u.Scheme),
		Host:   strings.ToLower(u.Hostname()),
		Port:   u.Port(),
		Path:   p,
		Query:  u.RawQuery,
	}, nil
}

// parseFast hand-parses scheme://host[:port][/path][?query] for the
// conservative subset of URLs where its output is bit-identical to the
// net/url path in Parse: lowercase scheme and host, no userinfo,
// fragment, percent-escape, or any byte the standard library would
// re-encode. Returns ok=false (fall back to net/url) for anything it is
// not certain about.
func parseFast(raw string) (*URL, bool) {
	var scheme, rest string
	switch {
	case strings.HasPrefix(raw, "http://"):
		scheme, rest = "http", raw[len("http://"):]
	case strings.HasPrefix(raw, "https://"):
		scheme, rest = "https", raw[len("https://"):]
	case strings.HasPrefix(raw, "ws://"):
		scheme, rest = "ws", raw[len("ws://"):]
	case strings.HasPrefix(raw, "wss://"):
		scheme, rest = "wss", raw[len("wss://"):]
	default:
		return nil, false
	}
	hostport, path, query := rest, "/", ""
	end := 0 // first '/' or '?': the end of host[:port]
	for end < len(rest) && rest[end] != '/' && rest[end] != '?' {
		end++
	}
	if end < len(rest) {
		hostport = rest[:end]
		tail := rest[end:]
		if tail[0] == '?' {
			query = tail[1:]
		} else if q := strings.IndexByte(tail, '?'); q >= 0 {
			path, query = tail[:q], tail[q+1:]
		} else {
			path = tail
		}
	}
	host, port := hostport, ""
	if c := strings.IndexByte(hostport, ':'); c >= 0 {
		host, port = hostport[:c], hostport[c+1:]
		if port == "" || !allDigits(port) {
			return nil, false
		}
	}
	if host == "" || !simpleHost(host) || !simplePath(path) || !simpleQuery(query) {
		return nil, false
	}
	u := &URL{Raw: raw, Scheme: scheme, Host: host, Port: port, Path: path, Query: query}
	if end < len(rest) && rest[end] == '/' {
		// The input spelled out its path, so reassembly reproduces it
		// verbatim: String() can return the original bytes.
		u.str = raw
	}
	return u, true
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// simpleHost accepts already-lowercase DNS-style hosts; anything else
// (uppercase, IP literals in brackets, userinfo '@') falls back to the
// standard parser, which normalizes those forms.
func simpleHost(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// simplePath accepts exactly the bytes url.URL.EscapedPath leaves
// unescaped, so the fast path's verbatim path equals the standard
// library's escaped path. '%', '@', and '#' are deliberately excluded:
// escapes and fragments need full parsing, and '@' could mark userinfo.
func simplePath(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.IndexByte("-._~$&+,/;:=!'()*", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// simpleQuery accepts printable ASCII without '#' (a fragment) or '%'
// (an escape): net/url stores such query strings verbatim in RawQuery.
func simpleQuery(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '#' || c == '%' {
			return false
		}
	}
	return true
}

// MustParse is Parse but panics on error. It is intended for static URLs in
// generators and tests.
func MustParse(raw string) *URL {
	u, err := Parse(raw)
	if err != nil {
		panic(err)
	}
	return u
}

// String reassembles the URL. The builder is pre-sized to the exact
// output length so reassembly costs a single allocation; String is the
// hottest allocation site in the crawl pipeline (every request, event,
// and record key reassembles a URL).
func (u *URL) String() string {
	if u.str != "" {
		return u.str
	}
	n := len(u.Scheme) + len("://") + len(u.Host) + len(u.Path)
	if u.Port != "" {
		n += 1 + len(u.Port)
	}
	if u.Query != "" {
		n += 1 + len(u.Query)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(u.Scheme)
	b.WriteString("://")
	b.WriteString(u.Host)
	if u.Port != "" {
		b.WriteByte(':')
		b.WriteString(u.Port)
	}
	b.WriteString(u.Path)
	if u.Query != "" {
		b.WriteByte('?')
		b.WriteString(u.Query)
	}
	return b.String()
}

// IsWebSocket reports whether the URL uses the ws or wss scheme.
func (u *URL) IsWebSocket() bool { return u.Scheme == "ws" || u.Scheme == "wss" }

// IsSecure reports whether the URL uses a TLS-carrying scheme.
func (u *URL) IsSecure() bool { return u.Scheme == "https" || u.Scheme == "wss" }

// RegistrableDomain returns the 2nd-level (registrable) domain of the host.
func (u *URL) RegistrableDomain() string { return RegistrableDomain(u.Host) }

// Origin returns the scheme://host[:port] origin of the URL.
func (u *URL) Origin() string {
	if u.Port != "" {
		return u.Scheme + "://" + u.Host + ":" + u.Port
	}
	return u.Scheme + "://" + u.Host
}

// HostPort returns host:port, inferring the default port for the scheme
// when no explicit port was present.
func (u *URL) HostPort() string {
	port := u.Port
	if port == "" {
		switch u.Scheme {
		case "http", "ws":
			port = "80"
		case "https", "wss":
			port = "443"
		default:
			port = "0"
		}
	}
	return u.Host + ":" + port
}

// multiLabelSuffixes lists public suffixes that consume two labels. The
// real web uses the full Public Suffix List; this subset covers every
// suffix the synthetic ecosystem and the paper's domains use.
var multiLabelSuffixes = map[string]bool{
	"co.uk":  true,
	"org.uk": true,
	"ac.uk":  true,
	"gov.uk": true,
	"com.au": true,
	"net.au": true,
	"org.au": true,
	"co.jp":  true,
	"ne.jp":  true,
	"or.jp":  true,
	"com.br": true,
	"com.cn": true,
	"com.mx": true,
	"co.in":  true,
	"co.nz":  true,
	"co.za":  true,
}

// RegistrableDomain returns the registrable ("2nd-level") domain for a
// host: the public suffix plus one label. Hosts that are themselves a
// suffix, a single label, or an IP literal are returned unchanged.
func RegistrableDomain(host string) string {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	if host == "" || isIPLiteral(host) {
		return host
	}
	// Walk label boundaries from the right instead of Split/Join: the
	// answer is always a suffix of host, so it can be sliced out without
	// building a labels slice (this runs for every mapped domain).
	i1 := strings.LastIndexByte(host, '.')
	if i1 < 0 {
		return host // single label
	}
	i2 := strings.LastIndexByte(host[:i1], '.')
	if i2 < 0 {
		// Exactly two labels: the registrable domain is the whole host
		// whether or not it is itself a multi-label public suffix.
		return host
	}
	last2 := host[i2+1:]
	// Check for a two-label public suffix (e.g. co.uk): registrable
	// domain is then the last three labels.
	if multiLabelSuffixes[last2] {
		i3 := strings.LastIndexByte(host[:i2], '.')
		return host[i3+1:]
	}
	return last2
}

func isIPLiteral(host string) bool {
	if strings.HasPrefix(host, "[") {
		return true // IPv6 literal
	}
	dots := 0
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case c == '.':
			dots++
		case c < '0' || c > '9':
			return false
		}
	}
	return dots == 3
}

// SameParty reports whether two hosts share a registrable domain, i.e.
// whether a request between them is first-party.
func SameParty(hostA, hostB string) bool {
	return RegistrableDomain(hostA) == RegistrableDomain(hostB)
}

// IsThirdParty reports whether resourceHost is third-party relative to the
// top-level page host, per the paper's cross-origin socket definition.
func IsThirdParty(pageHost, resourceHost string) bool {
	return !SameParty(pageHost, resourceHost)
}

// Subdomain reports whether host is host itself, or a dot-separated
// subdomain of domain (the matching rule used by Adblock Plus "||" anchors
// and $domain options).
func Subdomain(host, domain string) bool {
	host = strings.ToLower(host)
	domain = strings.ToLower(domain)
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}
