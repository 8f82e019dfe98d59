package filterlist

// The reverse index (DESIGN.md §10): every rule is filed under exactly
// one token — the rarest of its usable pattern tokens, so hot tokens
// like "www" or "com" don't accumulate huge buckets — and rules whose
// pattern yields no provable token fall into a small always-scanned
// rest list. Filing each rule exactly once means a lookup never needs a
// per-call "seen" set: a rule can only be reached through its one
// bucket (a URL may repeat a token, but the token vector is deduped).
//
// Buckets preserve insertion order, so the first match inside a bucket
// is the lowest-sequence match of that bucket and scanning can stop
// there; across buckets the engine keeps the minimum sequence number,
// making the winning rule deterministic (list order, then rule order)
// regardless of map layout — the bug class the old map-iteration
// matcher had.

// indexedRule pairs a rule with its insertion sequence within the list,
// the tiebreaker that makes decisions deterministic.
type indexedRule struct {
	rule *Rule
	seq  int
}

// ruleIndex is the reverse index over one rule class (blocks or
// exceptions) of one list.
type ruleIndex struct {
	buckets map[uint64][]indexedRule
	rest    []indexedRule
}

// buildIndex files rules under their rarest usable token. Rarity is
// computed over this rule set's candidate tokens; ties keep the
// earliest candidate in pattern order, so the result is a pure function
// of the rule sequence.
func buildIndex(rules []*Rule) ruleIndex {
	cands := make([][]uint64, len(rules))
	freq := make(map[uint64]int, len(rules))
	for i, r := range rules {
		cands[i] = patternTokenCandidates(r)
		for _, h := range cands[i] {
			freq[h]++
		}
	}
	idx := ruleIndex{buckets: make(map[uint64][]indexedRule, len(rules))}
	for i, r := range rules {
		best, bestN := uint64(0), -1
		for _, h := range cands[i] {
			if n := freq[h]; bestN < 0 || n < bestN {
				best, bestN = h, n
			}
		}
		ir := indexedRule{rule: r, seq: i}
		if bestN < 0 {
			idx.rest = append(idx.rest, ir)
		} else {
			idx.buckets[best] = append(idx.buckets[best], ir)
		}
	}
	return idx
}

// matchBest returns the lowest-sequence rule matching the prepared
// request, or (nil, -1). Candidate buckets are selected by the URL's
// token hashes; the rest list is always scanned. Bucket scans stop at
// the first match (buckets are sequence-ordered) and skip entries that
// cannot improve on the current best.
func (ix *ruleIndex) matchBest(sc *matchScratch, req Request) (*Rule, int) {
	var best *Rule
	bestSeq := -1
	for _, h := range sc.tokens {
		for _, ir := range ix.buckets[h] {
			if best != nil && ir.seq >= bestSeq {
				break
			}
			if ir.rule.matchesRequestTarget(req, sc.target) {
				best, bestSeq = ir.rule, ir.seq
				break
			}
		}
	}
	for _, ir := range ix.rest {
		if best != nil && ir.seq >= bestSeq {
			break
		}
		if ir.rule.matchesRequestTarget(req, sc.target) {
			best, bestSeq = ir.rule, ir.seq
			break
		}
	}
	return best, bestSeq
}

// compiledList is the immutable compiled form of a List. It is built
// once (lazily, under the list's compile lock), published through an
// atomic pointer, and never mutated afterwards, so match paths read it
// without synchronization.
type compiledList struct {
	block ruleIndex
	exc   ruleIndex
}
