// Package webrequest implements the chrome.webRequest extension API
// surface that ad blockers depend on, together with the webRequest bug
// (WRB) at the heart of the paper.
//
// Two independent mechanisms decide whether an extension can interpose on
// a WebSocket connection, and both are modeled faithfully:
//
//  1. The browser-side bug (Chromium issue 129353): before Chrome 58 the
//     network stack never dispatched WebSocket requests to
//     onBeforeRequest listeners at all. That gate lives in Registry's
//     DispatchWebSockets flag, which the browser derives from its
//     version.
//
//  2. The extension-side mistake reported by Franken et al.: extensions
//     that register listeners with "http://*/*, https://*/*" match
//     patterns can never match a ws:// URL even on patched browsers.
//     That behaviour falls out of MatchPattern's scheme matching.
package webrequest

import (
	"fmt"
	"strings"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

// Details describes one outgoing request, as passed to listeners.
type Details struct {
	// RequestID is the browser-assigned request identifier.
	RequestID string
	// URL is the full request URL.
	URL string
	// Type classifies the request.
	Type devtools.ResourceType
	// FrameID identifies the frame issuing the request.
	FrameID devtools.FrameID
	// InitiatorURL is the URL of the script or document that caused the
	// request.
	InitiatorURL string
	// FirstPartyURL is the top-level page URL.
	FirstPartyURL string

	// Parsed and FirstParty are URL and FirstPartyURL parsed. A caller
	// that holds them — the browser does, for every request — passes
	// them along; Dispatch parses whichever is missing, so a listener
	// always sees both (FirstParty nil if its string does not parse).
	Parsed     *urlutil.URL
	FirstParty *urlutil.URL
}

// BlockingResponse is a listener's verdict on a request.
type BlockingResponse struct {
	// Cancel aborts the request when true.
	Cancel bool
	// Rule optionally names the filter rule that matched, for
	// diagnostics and the paper's post-hoc blocking analysis.
	Rule string
}

// Listener receives request details and returns a verdict.
type Listener func(Details) BlockingResponse

// MatchPattern is a Chrome-extension match pattern:
// <scheme>://<host>/<path> where scheme may be "*" (HTTP and HTTPS only,
// per Chrome's documented semantics — this detail is what bit extension
// developers), host may be "*" or "*.domain", and path may contain "*".
type MatchPattern struct {
	raw    string
	scheme string // "*", "http", "https", "ws", "wss"
	host   string // "*", "*.domain", or exact host
	path   string // may contain '*'
}

// ParseMatchPattern parses a match pattern or returns an error for
// malformed input. The special pattern "<all_urls>" matches every
// supported scheme, including ws and wss.
func ParseMatchPattern(raw string) (MatchPattern, error) {
	if raw == "<all_urls>" {
		return MatchPattern{raw: raw, scheme: "<all>", host: "*", path: "/*"}, nil
	}
	i := strings.Index(raw, "://")
	if i < 0 {
		return MatchPattern{}, fmt.Errorf("webrequest: pattern %q: missing scheme separator", raw)
	}
	scheme := raw[:i]
	switch scheme {
	case "*", "http", "https", "ws", "wss":
	default:
		return MatchPattern{}, fmt.Errorf("webrequest: pattern %q: unsupported scheme %q", raw, scheme)
	}
	rest := raw[i+3:]
	slash := strings.Index(rest, "/")
	if slash < 0 {
		return MatchPattern{}, fmt.Errorf("webrequest: pattern %q: missing path", raw)
	}
	host := strings.ToLower(rest[:slash])
	path := rest[slash:]
	if host == "" {
		return MatchPattern{}, fmt.Errorf("webrequest: pattern %q: empty host", raw)
	}
	if strings.Contains(strings.TrimPrefix(host, "*."), "*") && host != "*" {
		return MatchPattern{}, fmt.Errorf("webrequest: pattern %q: '*' only allowed as leading host label", raw)
	}
	return MatchPattern{raw: raw, scheme: scheme, host: host, path: path}, nil
}

// MustParseMatchPattern is ParseMatchPattern, panicking on error.
func MustParseMatchPattern(raw string) MatchPattern {
	p, err := ParseMatchPattern(raw)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the original pattern text.
func (p MatchPattern) String() string { return p.raw }

// Matches reports whether the pattern matches the URL.
func (p MatchPattern) Matches(u *urlutil.URL) bool {
	switch p.scheme {
	case "<all>":
		// matches every scheme
	case "*":
		// Chrome semantics: "*" covers http and https only. It does NOT
		// cover ws/wss — the root cause of extensions missing WebSocket
		// requests even after the browser-side bug was fixed.
		if u.Scheme != "http" && u.Scheme != "https" {
			return false
		}
	default:
		if u.Scheme != p.scheme {
			return false
		}
	}
	switch {
	case p.host == "*":
		// any host
	case strings.HasPrefix(p.host, "*."):
		if !urlutil.Subdomain(u.Host, p.host[2:]) {
			return false
		}
	default:
		if u.Host != p.host {
			return false
		}
	}
	return globMatch(p.path, u.Path)
}

// globMatch matches pattern (with '*' wildcards) against s, anchored at
// both ends.
func globMatch(pattern, s string) bool {
	// Iterative glob match: '*' matches any run of characters.
	var pi, si, star, mark int
	star = -1
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// registration pairs a listener with its filters.
type registration struct {
	name     string
	patterns []MatchPattern
	types    map[devtools.ResourceType]bool // nil means all types
	listener Listener
}

// Registry is the browser side of the webRequest API: extensions register
// listeners; the network stack dispatches request details and honors
// cancellations.
type Registry struct {
	// DispatchWebSockets models the browser-side WRB gate: when false
	// (Chrome < 58), requests of type WebSocket are never dispatched to
	// listeners, so extensions cannot see — let alone block — them.
	DispatchWebSockets bool

	regs []registration
}

// NewRegistry returns a registry with the given WRB state.
// dispatchWebSockets=false reproduces pre-Chrome-58 behaviour.
func NewRegistry(dispatchWebSockets bool) *Registry {
	return &Registry{DispatchWebSockets: dispatchWebSockets}
}

// OnBeforeRequest registers listener under an extension name with URL
// patterns and an optional resource-type filter (nil/empty = all types).
func (r *Registry) OnBeforeRequest(name string, patterns []MatchPattern, types []devtools.ResourceType, listener Listener) {
	reg := registration{name: name, patterns: patterns, listener: listener}
	if len(types) > 0 {
		reg.types = make(map[devtools.ResourceType]bool, len(types))
		for _, t := range types {
			reg.types[t] = true
		}
	}
	r.regs = append(r.regs, reg)
}

// Verdict is the outcome of dispatching one request.
type Verdict struct {
	// Cancelled is true when any listener cancelled the request.
	Cancelled bool
	// Extension is the name of the cancelling extension.
	Extension string
	// Rule is the cancelling listener's rule annotation.
	Rule string
	// Dispatched is false when the request was never shown to
	// listeners (the WRB path).
	Dispatched bool
}

// Dispatch runs the request past all registered listeners, honoring the
// WRB gate and each registration's pattern/type filters. The first
// cancelling listener wins.
func (r *Registry) Dispatch(d Details) Verdict {
	if d.Type == devtools.ResourceWebSocket && !r.DispatchWebSockets {
		// The webRequest bug: WebSocket requests bypass the extension
		// layer entirely.
		return Verdict{}
	}
	if d.Parsed == nil {
		if d.Parsed, _ = urlutil.Parse(d.URL); d.Parsed == nil {
			return Verdict{Dispatched: true}
		}
	}
	if d.FirstParty == nil {
		d.FirstParty, _ = urlutil.Parse(d.FirstPartyURL)
	}
	u := d.Parsed
	v := Verdict{Dispatched: true}
	for _, reg := range r.regs {
		if reg.types != nil && !reg.types[d.Type] {
			continue
		}
		matched := len(reg.patterns) == 0
		for _, p := range reg.patterns {
			if p.Matches(u) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		resp := reg.listener(d)
		if resp.Cancel {
			v.Cancelled = true
			v.Extension = reg.name
			v.Rule = resp.Rule
			return v
		}
	}
	return v
}

// ListenerCount returns the number of registered listeners.
func (r *Registry) ListenerCount() int { return len(r.regs) }
