package filterlist

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// List is a compiled filter list: block rules and exception rules with
// a tokenized reverse index (index.go) for candidate selection. Rules
// are accumulated with Add and compiled lazily on first match; the
// compiled form is immutable and published atomically, so matching is
// safe from any number of goroutines. Add after matching has started
// invalidates the compiled form.
type List struct {
	// Name identifies the list (e.g. "easylist", "easyprivacy").
	Name string

	blocks     []*Rule
	exceptions []*Rule

	// Skipped counts lines that were comments/unsupported and ignored.
	Skipped int

	compiled  atomic.Pointer[compiledList]
	compileMu sync.Mutex
}

// NewList returns an empty named list.
func NewList(name string) *List {
	return &List{Name: name}
}

// Parse compiles filter-list text. Comment lines, element-hiding rules,
// and rules with unsupported options are skipped (counted in Skipped),
// matching how blockers tolerate unknown syntax.
func Parse(name, text string) *List {
	l := NewList(name)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if IsCommentLine(line) {
			if line != "" {
				l.Skipped++
			}
			continue
		}
		rule, err := ParseRule(line)
		if err != nil {
			l.Skipped++
			continue
		}
		l.Add(rule)
	}
	return l
}

// Add inserts one rule into the list, invalidating the compiled index.
func (l *List) Add(r *Rule) {
	if r.Exception {
		l.exceptions = append(l.exceptions, r)
	} else {
		l.blocks = append(l.blocks, r)
	}
	l.compiled.Store(nil)
}

// Len returns the number of active (block + exception) rules.
func (l *List) Len() int { return len(l.blocks) + len(l.exceptions) }

// ensureCompiled returns the list's compiled index, building it on
// first use (double-checked under compileMu so concurrent matchers
// build at most once).
func (l *List) ensureCompiled() *compiledList {
	if c := l.compiled.Load(); c != nil {
		return c
	}
	l.compileMu.Lock()
	defer l.compileMu.Unlock()
	if c := l.compiled.Load(); c != nil {
		return c
	}
	c := &compiledList{
		block: buildIndex(l.blocks),
		exc:   buildIndex(l.exceptions),
	}
	l.compiled.Store(c)
	return c
}

// Decision is the outcome of matching one request against a list (or a
// set of lists).
type Decision struct {
	// Blocked is true when a block rule matched and no exception
	// overrode it.
	Blocked bool
	// Rule is the matching block rule (also set when an exception
	// overrode it).
	Rule *Rule
	// Exception is the exception rule that overrode the block, if any.
	Exception *Rule
	// List names the list the deciding rule came from (the exception's
	// list when one overrode the block).
	List string
}

// Match evaluates the request: a block rule must match and no exception
// rule may match. Exceptions are evaluated only when a block matched,
// mirroring ABP behaviour. When several block rules match, the earliest
// added wins deterministically.
func (l *List) Match(req Request) Decision {
	sc := getScratch()
	sc.prepare(req.URL)
	d := l.matchPrepared(sc, req)
	putScratch(sc)
	return d
}

// matchPrepared is Match over an already-prepared scratch target.
func (l *List) matchPrepared(sc *matchScratch, req Request) Decision {
	c := l.ensureCompiled()
	block, _ := c.block.matchBest(sc, req)
	if block == nil {
		return Decision{}
	}
	if ex, _ := c.exc.matchBest(sc, req); ex != nil {
		return Decision{Blocked: false, Rule: block, Exception: ex, List: l.Name}
	}
	return Decision{Blocked: true, Rule: block, List: l.Name}
}

// Group is an ordered collection of lists evaluated together (the paper
// uses EasyList + EasyPrivacy). A request is blocked when any list
// blocks it and no list's exception rule matches it.
type Group struct {
	Lists []*List
}

// NewGroup builds a group over the given lists, compiling each one, and
// publishes the group's reverse-index fill as the match.index_* gauges.
// The gauges are set, not added to, so they describe the most recently
// built group — the live index of a crawl — however many groups the
// process has built before.
func NewGroup(lists ...*List) *Group {
	var rules, tokens, rest int
	for _, l := range lists {
		c := l.ensureCompiled()
		rules += l.Len()
		tokens += len(c.block.buckets) + len(c.exc.buckets)
		rest += len(c.block.rest) + len(c.exc.rest)
	}
	obs.MatchIndexRules.Set(int64(rules))
	obs.MatchIndexTokens.Set(int64(tokens))
	obs.MatchIndexRest.Set(int64(rest))
	return &Group{Lists: lists}
}

// Match evaluates the request against every list. An exception in any
// list protects the request from block rules in every list, matching
// how blockers merge subscriptions. The deciding block rule is the
// first match in (list order, rule order); the overriding exception,
// when one exists, is likewise the first in that order.
func (g *Group) Match(req Request) Decision {
	obs.MatchRequests.Inc()
	sc := getScratch()
	sc.prepare(req.URL)
	sp := obs.StartSpan(obs.MatchEval)
	d := g.matchPrepared(sc, req)
	sp.End()
	putScratch(sc)
	return d
}

// matchPrepared runs the group evaluation: the target is lowered and
// tokenized exactly once, each list's block index is consulted in order
// until one blocks, and — only then — each list's exception index is
// consulted at most once.
func (g *Group) matchPrepared(sc *matchScratch, req Request) Decision {
	var block *Rule
	var blockList string
	for _, l := range g.Lists {
		c := l.ensureCompiled()
		if r, _ := c.block.matchBest(sc, req); r != nil {
			block, blockList = r, l.Name
			break
		}
	}
	if block == nil {
		return Decision{}
	}
	for _, l := range g.Lists {
		c := l.ensureCompiled()
		if ex, _ := c.exc.matchBest(sc, req); ex != nil {
			return Decision{Blocked: false, Rule: block, Exception: ex, List: l.Name}
		}
	}
	return Decision{Blocked: true, Rule: block, List: blockList}
}

// RuleCount returns the total active rules across the group.
func (g *Group) RuleCount() int {
	n := 0
	for _, l := range g.Lists {
		n += l.Len()
	}
	return n
}
