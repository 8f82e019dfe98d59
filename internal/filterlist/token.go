package filterlist

import (
	"sync"

	"repro/internal/urlutil"
)

// Tokenization is the foundation of the reverse-index match engine
// (DESIGN.md §10). A "token" is a maximal run of [a-z0-9] bytes of
// length >= minTokenLen, hashed with FNV-1a. The URL is tokenized once
// per request into a reusable scratch buffer; every rule is filed in
// the index under the hash of its rarest token, so a lookup touches
// only the rules whose indexed token actually occurs in the URL.
//
// A literal run inside a rule pattern is only usable as an index token
// when the engine can prove it will appear as a *complete* URL token in
// every URL the rule matches — i.e. both of its boundaries in the
// pattern are guaranteed non-alphanumeric in the matched URL:
//
//   - left edge: the run starts the pattern and the pattern is
//     domain-anchored ("||", host start or a '.' boundary) or
//     start-anchored ("|", URL start), or the preceding pattern byte is
//     a literal non-alphanumeric or '^' (which only matches
//     separators). A preceding '*' disqualifies the run, since the
//     wildcard can consume alphanumerics adjoining it.
//   - right edge: symmetric, with a pattern-final run only usable under
//     an end anchor.
//
// Both sides use the same token alphabet, so the invariant "rule
// matches URL ⇒ the rule's indexed token is among the URL's token
// hashes" holds by construction; the differential property test in
// engine_test.go checks it against the reference oracle.

const (
	// minTokenLen is the minimum alphanumeric run length worth hashing.
	minTokenLen = 3
	// maxURLTokens caps the per-request token vector (a URL with more
	// distinct 3+-char runs than this is pathological; extra tokens
	// only *narrow* candidate selection, so dropping them is safe —
	// rules indexed under a dropped token are just never looked up,
	// which can only cause a missed candidate, never a wrong match...
	// so the cap must be generous enough that real rules' tokens are
	// found. 64 covers every URL the generator or EasyList exercises).
	maxURLTokens = 64

	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// isTokenByte reports whether c belongs to the token alphabet.
func isTokenByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// hashRange returns the FNV-1a hash of s[i:j].
func hashRange(s string, i, j int) uint64 {
	h := uint64(fnvOffset64)
	for k := i; k < j; k++ {
		h = (h ^ uint64(s[k])) * fnvPrime64
	}
	return h
}

// appendLowerASCII appends s to dst with ASCII letters lowered. Rule
// patterns are lowered at parse time with the same ASCII semantics the
// matcher assumes, so the prepared target must be lowered identically.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// matchScratch is the per-request scratch state: the lowered target
// string and its token-hash vector. Instances are pooled so the hot
// path performs no per-call map or slice allocation; the only
// allocation of an evaluation is the target string itself.
type matchScratch struct {
	buf    []byte
	target string
	tokens []uint64
}

var scratchPool = sync.Pool{
	New: func() any {
		return &matchScratch{
			buf:    make([]byte, 0, 256),
			tokens: make([]uint64, 0, maxURLTokens),
		}
	},
}

func getScratch() *matchScratch   { return scratchPool.Get().(*matchScratch) }
func putScratch(sc *matchScratch) { scratchPool.Put(sc) }

// prepare lowers the URL once and tokenizes it. The rendered form
// matches urlutil.URL.String exactly (scheme://host[:port]path[?query])
// so the engine and the linear oracle of the tests see the same target
// bytes.
func (sc *matchScratch) prepare(u *urlutil.URL) {
	b := sc.buf[:0]
	b = appendLowerASCII(b, u.Scheme)
	b = append(b, "://"...)
	b = appendLowerASCII(b, u.Host)
	if u.Port != "" {
		b = append(b, ':')
		b = append(b, u.Port...)
	}
	b = appendLowerASCII(b, u.Path)
	if u.Query != "" {
		b = append(b, '?')
		b = appendLowerASCII(b, u.Query)
	}
	sc.buf = b
	// URLs in a crawl are almost always already lowercase canonical, in
	// which case the rendered target equals u.String() byte-for-byte and
	// the existing string can be reused. The comparison below does not
	// allocate (the compiler special-cases string(b) == s in a compare),
	// so the common path performs zero allocations.
	if s := u.String(); s == string(b) {
		sc.target = s
	} else {
		sc.target = string(b)
	}
	sc.tokens = appendURLTokens(sc.tokens[:0], sc.target)
}

// appendURLTokens appends the deduplicated token hashes of target to
// dst. Dedup is a linear scan: the vector is short and stays in cache,
// and avoiding a map keeps the path allocation-free.
func appendURLTokens(dst []uint64, target string) []uint64 {
	i := 0
	for i < len(target) && len(dst) < maxURLTokens {
		if !isTokenByte(target[i]) {
			i++
			continue
		}
		j := i
		for j < len(target) && isTokenByte(target[j]) {
			j++
		}
		if j-i >= minTokenLen {
			h := hashRange(target, i, j)
			dup := false
			for _, e := range dst {
				if e == h {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, h)
			}
		}
		i = j
	}
	return dst
}

// patternTokenCandidates returns the hashes of every literal run in the
// rule's pattern that is provably a complete URL token (see the package
// comment above), in pattern order. The indexer picks the rarest.
func patternTokenCandidates(r *Rule) []uint64 {
	p := r.pattern
	var out []uint64
	i := 0
	for i < len(p) {
		if !isTokenByte(p[i]) {
			i++
			continue
		}
		j := i
		for j < len(p) && isTokenByte(p[j]) {
			j++
		}
		if j-i >= minTokenLen {
			leftOK := false
			if i == 0 {
				leftOK = r.domainAnchor || r.startAnchor
			} else {
				leftOK = p[i-1] != '*'
			}
			rightOK := false
			if j == len(p) {
				rightOK = r.endAnchor
			} else {
				rightOK = p[j] != '*'
			}
			if leftOK && rightOK {
				out = append(out, hashRange(p, i, j))
			}
		}
		i = j
	}
	return out
}
