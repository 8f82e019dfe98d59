// Package adblock implements blocking extensions on top of the
// webRequest API and the filter-list engine — the AdBlock Plus / uBlock
// Origin layer of the paper's story.
//
// Two presets matter historically:
//
//   - HTTPOnlyPatterns models the extensions Franken et al. examined,
//     registered for "http://*/*, https://*/*": even on a patched
//     browser they cannot see ws:// URLs.
//   - AllURLs models a correctly-registered blocker that can interpose
//     on WebSockets — but only on browsers without the webRequest bug.
package adblock

import (
	"sync"
	"sync/atomic"

	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/webrequest"
)

// PatternStyle selects which match patterns the extension registers.
type PatternStyle int

// Pattern styles.
const (
	// HTTPOnlyPatterns registers http://*/* and https://*/* only: the
	// historical mistake that misses ws:// URLs entirely.
	HTTPOnlyPatterns PatternStyle = iota
	// AllURLs registers <all_urls>, covering ws:// and wss://.
	AllURLs
)

// Blocker is a filter-list-driven blocking extension. The pass path
// (no rule matched — almost all crawl traffic) touches no lock: the
// blocked tally is atomic and the per-rule histogram lock is taken only
// on actual cancellations.
type Blocker struct {
	name    string
	group   *filterlist.Group
	style   PatternStyle
	blocked atomic.Int64
	mu      sync.Mutex // guards byRule
	byRule  map[string]int
}

// New builds a blocker over the given rule lists.
func New(name string, style PatternStyle, lists ...*filterlist.List) *Blocker {
	return &Blocker{
		name:   name,
		group:  filterlist.NewGroup(lists...),
		style:  style,
		byRule: map[string]int{},
	}
}

// Name implements browser.Extension.
func (b *Blocker) Name() string { return b.name }

// Install implements browser.Extension.
func (b *Blocker) Install(reg *webrequest.Registry) {
	var patterns []webrequest.MatchPattern
	switch b.style {
	case HTTPOnlyPatterns:
		patterns = []webrequest.MatchPattern{
			webrequest.MustParseMatchPattern("http://*/*"),
			webrequest.MustParseMatchPattern("https://*/*"),
		}
	case AllURLs:
		patterns = []webrequest.MatchPattern{webrequest.MustParseMatchPattern("<all_urls>")}
	}
	reg.OnBeforeRequest(b.name, patterns, nil, b.onBeforeRequest)
}

func (b *Blocker) onBeforeRequest(d webrequest.Details) webrequest.BlockingResponse {
	// Blockers never cancel top-level documents.
	if d.Type == devtools.ResourceDocument {
		return webrequest.BlockingResponse{}
	}
	pageHost := ""
	if d.FirstParty != nil {
		pageHost = d.FirstParty.Host
	}
	decision := b.group.Match(filterlist.Request{URL: d.Parsed, Type: d.Type, PageHost: pageHost})
	if !decision.Blocked {
		return webrequest.BlockingResponse{}
	}
	b.blocked.Add(1)
	b.mu.Lock()
	b.byRule[decision.Rule.Raw]++
	b.mu.Unlock()
	return webrequest.BlockingResponse{Cancel: true, Rule: decision.Rule.Raw}
}

// BlockedCount returns how many requests the blocker cancelled.
func (b *Blocker) BlockedCount() int {
	return int(b.blocked.Load())
}

// TopRules returns rule hit counts.
func (b *Blocker) TopRules() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.byRule))
	for k, v := range b.byRule {
		out[k] = v
	}
	return out
}
