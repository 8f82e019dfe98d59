// Package filterlist implements an Adblock-Plus-compatible filter engine:
// parsing of EasyList/EasyPrivacy-style rule syntax and URL matching with
// request-type, party, and domain options.
//
// The paper uses EasyList and EasyPrivacy in three roles, all supported
// here: (1) labeling resources as A&A to derive the A&A domain set D′
// (§3.2), (2) the post-hoc "would this inclusion chain have been blocked"
// analysis (§4.2), and (3) as the rule source for blocker extensions in
// the WRB ablation experiments.
package filterlist

import (
	"fmt"
	"strings"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

// TypeMask is a bit set of request types a rule applies to.
type TypeMask uint32

// Request-type option bits.
const (
	TypeScript TypeMask = 1 << iota
	TypeImage
	TypeStylesheet
	TypeXHR
	TypeSubdocument
	TypeDocument
	TypeWebSocket
	TypeOther

	// TypeAll is the default applicability when no type options appear.
	TypeAll = TypeScript | TypeImage | TypeStylesheet | TypeXHR |
		TypeSubdocument | TypeDocument | TypeWebSocket | TypeOther
)

// optionBits maps option names to type bits.
var optionBits = map[string]TypeMask{
	"script":         TypeScript,
	"image":          TypeImage,
	"stylesheet":     TypeStylesheet,
	"xmlhttprequest": TypeXHR,
	"subdocument":    TypeSubdocument,
	"document":       TypeDocument,
	"websocket":      TypeWebSocket,
	"other":          TypeOther,
}

// MaskForResource maps a devtools resource type to its option bit.
func MaskForResource(rt devtools.ResourceType) TypeMask {
	switch rt {
	case devtools.ResourceScript:
		return TypeScript
	case devtools.ResourceImage:
		return TypeImage
	case devtools.ResourceStylesheet:
		return TypeStylesheet
	case devtools.ResourceXHR:
		return TypeXHR
	case devtools.ResourceSubFrame:
		return TypeSubdocument
	case devtools.ResourceDocument:
		return TypeDocument
	case devtools.ResourceWebSocket:
		return TypeWebSocket
	default:
		return TypeOther
	}
}

// Rule is one parsed filter rule.
type Rule struct {
	// Raw is the original rule text.
	Raw string
	// Exception marks "@@" allow rules.
	Exception bool

	// pattern matching state
	domainAnchor bool   // "||" prefix
	startAnchor  bool   // "|" prefix
	endAnchor    bool   // "|" suffix
	pattern      string // pattern body (may contain '*' and '^')

	// option state
	types          TypeMask
	thirdParty     int8 // 0 = any, 1 = third-party only, -1 = first-party only
	includeDomains []string
	excludeDomains []string
}

// IsCommentLine reports whether a raw line is a comment, a list header,
// or an element-hiding rule (which this network-layer engine ignores).
func IsCommentLine(line string) bool {
	line = strings.TrimSpace(line)
	return line == "" ||
		strings.HasPrefix(line, "!") ||
		strings.HasPrefix(line, "[") ||
		strings.Contains(line, "##") ||
		strings.Contains(line, "#@#") ||
		strings.Contains(line, "#?#")
}

// ParseRule parses one non-comment rule line.
func ParseRule(line string) (*Rule, error) {
	raw := line
	line = strings.TrimSpace(line)
	if IsCommentLine(line) {
		return nil, fmt.Errorf("filterlist: %q is not a network rule", raw)
	}
	r := &Rule{Raw: raw, types: TypeAll}
	if strings.HasPrefix(line, "@@") {
		r.Exception = true
		line = line[2:]
	}
	// Split off options at the last '$' that is followed by a plausible
	// option list (EasyList convention: options never contain '/').
	if i := strings.LastIndexByte(line, '$'); i >= 0 && !strings.ContainsAny(line[i+1:], "/") {
		opts := line[i+1:]
		line = line[:i]
		if err := r.parseOptions(opts); err != nil {
			return nil, err
		}
	}
	switch {
	case strings.HasPrefix(line, "||"):
		r.domainAnchor = true
		line = line[2:]
	case strings.HasPrefix(line, "|"):
		r.startAnchor = true
		line = line[1:]
	}
	if strings.HasSuffix(line, "|") {
		r.endAnchor = true
		line = line[:len(line)-1]
	}
	// Collapse redundant wildcard runs and trim no-op leading/trailing
	// '*' on unanchored patterns.
	for strings.Contains(line, "**") {
		line = strings.ReplaceAll(line, "**", "*")
	}
	if !r.startAnchor && !r.domainAnchor {
		line = strings.TrimPrefix(line, "*")
	}
	if !r.endAnchor {
		line = strings.TrimSuffix(line, "*")
	}
	if line == "" && !r.domainAnchor && !r.startAnchor && !r.endAnchor {
		return nil, fmt.Errorf("filterlist: rule %q has an empty pattern", raw)
	}
	r.pattern = strings.ToLower(line)
	return r, nil
}

func (r *Rule) parseOptions(opts string) error {
	var typeBits, invTypeBits TypeMask
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		lower := strings.ToLower(opt)
		switch {
		case lower == "third-party":
			r.thirdParty = 1
		case lower == "~third-party":
			r.thirdParty = -1
		case strings.HasPrefix(lower, "domain="):
			for _, d := range strings.Split(opt[len("domain="):], "|") {
				d = strings.ToLower(strings.TrimSpace(d))
				if d == "" {
					continue
				}
				if strings.HasPrefix(d, "~") {
					r.excludeDomains = append(r.excludeDomains, d[1:])
				} else {
					r.includeDomains = append(r.includeDomains, d)
				}
			}
		case strings.HasPrefix(lower, "~"):
			bit, ok := optionBits[lower[1:]]
			if !ok {
				return fmt.Errorf("filterlist: rule %q: unsupported option %q", r.Raw, opt)
			}
			invTypeBits |= bit
		default:
			bit, ok := optionBits[lower]
			if !ok {
				return fmt.Errorf("filterlist: rule %q: unsupported option %q", r.Raw, opt)
			}
			typeBits |= bit
		}
	}
	switch {
	case typeBits != 0:
		r.types = typeBits
	case invTypeBits != 0:
		r.types = TypeAll &^ invTypeBits
	}
	return nil
}

// Request is the input to rule matching.
type Request struct {
	// URL is the request URL.
	URL *urlutil.URL
	// Type is the resource type.
	Type devtools.ResourceType
	// PageHost is the host of the top-level page, used for third-party
	// and $domain option evaluation.
	PageHost string
}

// matchesRequestTarget reports whether the rule matches the request,
// evaluating options first (cheap) and then the URL pattern, against a
// pre-lowered target string, so the engine lowers each URL once per
// request instead of once per candidate rule.
func (r *Rule) matchesRequestTarget(req Request, target string) bool {
	if r.types&MaskForResource(req.Type) == 0 {
		return false
	}
	if r.thirdParty != 0 && req.PageHost != "" {
		third := urlutil.IsThirdParty(req.PageHost, req.URL.Host)
		if r.thirdParty == 1 && !third {
			return false
		}
		if r.thirdParty == -1 && third {
			return false
		}
	}
	if len(r.includeDomains) > 0 {
		ok := false
		for _, d := range r.includeDomains {
			if urlutil.Subdomain(req.PageHost, d) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, d := range r.excludeDomains {
		if urlutil.Subdomain(req.PageHost, d) {
			return false
		}
	}
	return r.matchesTarget(target, req.URL.Host)
}

// matchesTarget matches the rule's pattern against a pre-lowered
// rendering of the URL (urlutil.URL.String form).
func (r *Rule) matchesTarget(target, host string) bool {
	switch {
	case r.domainAnchor:
		return r.matchDomainAnchored(target, host)
	case r.startAnchor:
		return matchPatternAt(r.pattern, target, 0, r.endAnchor)
	default:
		// Unanchored: the pattern may start matching anywhere.
		for start := 0; start <= len(target); start++ {
			if matchPatternAt(r.pattern, target, start, r.endAnchor) {
				return true
			}
			if len(r.pattern) > 0 && r.pattern[0] != '^' && r.pattern[0] != '*' {
				// Fast-forward to the next occurrence of the first
				// pattern byte.
				idx := strings.IndexByte(target[start+1:], r.pattern[0])
				if idx < 0 {
					return false
				}
				start += idx // loop increment adds 1
			}
		}
		return false
	}
}

// matchDomainAnchored implements "||" semantics: the pattern must match
// beginning at the start of the host or at a subdomain boundary within
// the host.
func (r *Rule) matchDomainAnchored(target, host string) bool {
	schemeEnd := strings.Index(target, "://")
	if schemeEnd < 0 {
		return false
	}
	hostStart := schemeEnd + 3
	// Candidate start offsets: the host start and each position after a
	// '.' within the host.
	if matchPatternAt(r.pattern, target, hostStart, r.endAnchor) {
		return true
	}
	for i := 0; i < len(host); i++ {
		if host[i] == '.' {
			if matchPatternAt(r.pattern, target, hostStart+i+1, r.endAnchor) {
				return true
			}
		}
	}
	return false
}

// isSeparator implements the '^' placeholder class: any character that is
// not a letter, digit, or one of "_-.%".
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}

// matchPatternAt matches pattern against target starting at offset start.
// '*' matches any run; '^' matches one separator character or the end of
// the target. When endAnchor is set the match must consume target to its
// end.
func matchPatternAt(pattern, target string, start int, endAnchor bool) bool {
	if start > len(target) {
		return false
	}
	return matchHere(pattern, target, start, endAnchor)
}

func matchHere(pattern, target string, ti int, endAnchor bool) bool {
	pi := 0
	// Iterative matching with single-level backtracking for '*'.
	starPi, starTi := -1, -1
	for {
		if pi == len(pattern) {
			if !endAnchor || ti == len(target) {
				return true
			}
		} else {
			switch c := pattern[pi]; c {
			case '*':
				starPi, starTi = pi, ti
				pi++
				continue
			case '^':
				if ti < len(target) && isSeparator(target[ti]) {
					pi++
					ti++
					continue
				}
				// '^' also matches the end of the URL.
				if ti == len(target) && pi == len(pattern)-1 {
					pi++
					continue
				}
			default:
				if ti < len(target) && target[ti] == c {
					pi++
					ti++
					continue
				}
			}
		}
		// Mismatch: backtrack to the last '*', if any.
		if starPi >= 0 && starTi < len(target) {
			starTi++
			pi = starPi + 1
			ti = starTi
			continue
		}
		return false
	}
}
