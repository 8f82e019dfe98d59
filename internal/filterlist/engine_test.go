package filterlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/devtools"
	"repro/internal/obs"
)

// ---- deterministic rule priority (the map-iteration-order bugfix) ----

// TestDeterministicRulePriority pins the engine's decision contract:
// when several block rules match, the winner is the first in (list
// order, rule insertion order) — not whatever the index map yields
// first. The seed implementation ranged over its token index map, so
// the reported Decision.Rule/Decision.List could change run to run.
func TestDeterministicRulePriority(t *testing.T) {
	// Every one of these rules matches the probe URL.
	overlapping := []string{
		"||ads.example^",
		"/banner/",
		"||ads.example/banner/img^",
		"banner/img",
	}
	probe := req("http://ads.example/banner/img", devtools.ResourceImage, "pub.example")

	build := func(extra ...string) *List {
		l := NewList("priority")
		for _, line := range append(append([]string{}, overlapping...), extra...) {
			l.Add(mustRule(t, line))
		}
		return l
	}

	l := build()
	want := l.Match(probe)
	if !want.Blocked || want.Rule == nil {
		t.Fatalf("probe not blocked: %+v", want)
	}
	if want.Rule.Raw != overlapping[0] {
		t.Fatalf("winner = %q, want first-added rule %q", want.Rule.Raw, overlapping[0])
	}
	for i := 0; i < 200; i++ {
		if d := l.Match(probe); d.Rule != want.Rule || d.List != want.List {
			t.Fatalf("run %d: rule %q list %q, want %q %q", i, d.Rule.Raw, d.List, want.Rule.Raw, want.List)
		}
	}

	// A differently-built list — same overlapping rules, plus unrelated
	// rules that perturb the index's map layout — must report the same
	// winner.
	perturbed := build(
		"||padding-one.example^",
		"||padding-two.example^$script",
		"/some/other/path/",
		"@@||safe.example^",
	)
	for i := 0; i < 200; i++ {
		d := perturbed.Match(probe)
		if d.Rule.Raw != want.Rule.Raw || d.List != want.List {
			t.Fatalf("perturbed run %d: rule %q list %q, want %q %q", i, d.Rule.Raw, d.List, want.Rule.Raw, want.List)
		}
	}
}

// TestGroupDeterministicPriority pins list order as the primary key:
// the block reported by a group comes from the earliest list that
// blocks, and the overriding exception from the earliest list with a
// matching exception.
func TestGroupDeterministicPriority(t *testing.T) {
	first := Parse("first", "||ads.example^")
	second := Parse("second", "/banner/\n@@||ads.example/allowed^")
	g := NewGroup(first, second)

	d := g.Match(req("http://ads.example/banner/x", devtools.ResourceImage, "pub.example"))
	if !d.Blocked || d.Rule.Raw != "||ads.example^" || d.List != "first" {
		t.Errorf("block priority: %+v", d)
	}
	d = g.Match(req("http://ads.example/allowed", devtools.ResourceImage, "pub.example"))
	if d.Blocked || d.Exception == nil || d.List != "second" {
		t.Errorf("exception decision: %+v", d)
	}
}

// ---- differential property test: engine ≡ reference oracle ----

// corpusRules assembles a generated rule list exercising every
// supported shape: plain substrings, wildcards, '^' separators, "||"
// and "|" anchors, end anchors, $script/$image/$websocket,
// $third-party/$~third-party, $domain=... include/exclude, and "@@"
// exceptions.
func corpusRules(rng *rand.Rand, n int) []string {
	hosts := []string{
		"ads.example", "tracker.example", "cdn.example", "widget.example",
		"stats.co.uk", "pixel.example", "social.example", "media.example",
	}
	words := []string{"banner", "beacon", "track", "pixel", "advert", "widget", "sock", "img", "sync", "tag"}
	var lines []string
	for len(lines) < n {
		host := hosts[rng.Intn(len(hosts))]
		w1 := words[rng.Intn(len(words))]
		w2 := words[rng.Intn(len(words))]
		var pat string
		switch rng.Intn(6) {
		case 0:
			pat = "||" + host + "^"
		case 1:
			pat = "||" + host + "/" + w1 + "/"
		case 2:
			pat = "/" + w1 + "/" + w2 + "/"
		case 3:
			pat = "/" + w1 + "/*/" + w2 + "^"
		case 4:
			pat = "|http://" + host + "/" + w1
		case 5:
			pat = "." + w1 + "|"
		}
		var opts []string
		switch rng.Intn(5) {
		case 0:
			opts = append(opts, []string{"script", "image", "websocket"}[rng.Intn(3)])
		case 1:
			opts = append(opts, "third-party")
		case 2:
			opts = append(opts, "~third-party")
		case 3:
			opts = append(opts, "domain=pub1.example|~bad.pub1.example")
		}
		line := pat
		if len(opts) > 0 {
			line += "$" + strings.Join(opts, ",")
		}
		if rng.Intn(5) == 0 {
			line = "@@" + line
		}
		lines = append(lines, line)
	}
	return lines
}

// corpusRequest generates one request over the same vocabulary.
func corpusRequest(rng *rand.Rand) Request {
	hosts := []string{
		"ads.example", "sub.ads.example", "tracker.example", "cdn.example",
		"widget.example", "stats.co.uk", "pixel.example", "benign.example",
		"social.example", "media.example", "www.pub1.example",
	}
	words := []string{"banner", "beacon", "track", "pixel", "advert", "widget", "sock", "img", "sync", "tag", "page"}
	schemes := []string{"http", "https", "ws", "wss"}
	types := []devtools.ResourceType{
		devtools.ResourceScript, devtools.ResourceImage, devtools.ResourceWebSocket,
		devtools.ResourceXHR, devtools.ResourceOther,
	}
	pages := []string{"pub1.example", "bad.pub1.example", "other.example", "ads.example", ""}

	u := schemes[rng.Intn(len(schemes))] + "://" + hosts[rng.Intn(len(hosts))] + "/" +
		words[rng.Intn(len(words))] + "/" + words[rng.Intn(len(words))]
	switch rng.Intn(4) {
	case 0:
		u += "." + []string{"js", "gif", "swf", "html"}[rng.Intn(4)]
	case 1:
		u += "/?uid=" + fmt.Sprint(rng.Intn(1000))
	case 2:
		u += "/" + words[rng.Intn(len(words))]
	}
	return Request{
		URL:      mustParse(u),
		Type:     types[rng.Intn(len(types))],
		PageHost: pages[rng.Intn(len(pages))],
	}
}

// TestDifferentialEngineVsReference drives generated rule corpora and
// URLs through the indexed engine and the linear oracle and requires
// identical full decisions — not just Blocked, but the winning rule,
// exception, and list, since the priority contract is part of the
// engine's spec.
func TestDifferentialEngineVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20170419))
	for corpus := 0; corpus < 6; corpus++ {
		lines := corpusRules(rng, 80)
		split := len(lines) / 2
		g := NewGroup(
			Parse("easylist", strings.Join(lines[:split], "\n")),
			Parse("easyprivacy", strings.Join(lines[split:], "\n")),
		)
		for i := 0; i < 500; i++ {
			if _, err := checkAgainstLinear(g, corpusRequest(rng)); err != nil {
				t.Fatalf("corpus %d: %v", corpus, err)
			}
		}
	}
}

// checkAgainstLinear requires the engine's decision for one request to
// equal the linear oracle's, through the group and through each member
// list on its own, and returns the group's decision.
func checkAgainstLinear(g *Group, request Request) (Decision, error) {
	got, want := g.Match(request), g.refMatch(request)
	if got != want {
		return got, fmt.Errorf("group: url %s type %s page %q:\n  engine %s\n  linear %s",
			request.URL.Raw, request.Type, request.PageHost, decisionString(got), decisionString(want))
	}
	for _, l := range g.Lists {
		if got, want := l.Match(request), l.refMatch(request); got != want {
			return got, fmt.Errorf("list %s: url %s type %s page %q:\n  engine %s\n  linear %s",
				l.Name, request.URL.Raw, request.Type, request.PageHost, decisionString(got), decisionString(want))
		}
	}
	return got, nil
}

func decisionString(d Decision) string {
	rule, exc := "<nil>", "<nil>"
	if d.Rule != nil {
		rule = d.Rule.Raw
	}
	if d.Exception != nil {
		exc = d.Exception.Raw
	}
	return fmt.Sprintf("{Blocked:%v Rule:%q Exception:%q List:%q}", d.Blocked, rule, exc, d.List)
}

// TestAddAfterMatchRecompiles: mutating a list after it has been
// matched against must drop the compiled index, not serve decisions
// from the rules it was built over.
func TestAddAfterMatchRecompiles(t *testing.T) {
	l := Parse("test", "||ads.example^")
	g := NewGroup(l)
	request := req("http://ads.example/allowed/x", devtools.ResourceScript, "pub.example")
	if !g.Match(request).Blocked {
		t.Fatal("expected initial block")
	}
	l.Add(mustRule(t, "@@||ads.example/allowed/*"))
	if g.Match(request).Blocked {
		t.Error("stale index served after List.Add")
	}
}

// TestIndexGaugesReportLiveGroup: the match.index_* gauges describe the
// most recently built group, however many groups (one per crawl of a
// study) the process built before it.
func TestIndexGaugesReportLiveGroup(t *testing.T) {
	var tokens int64
	for round := 0; round < 3; round++ {
		g := NewGroup(
			Parse("easylist", "||ads.example^\n||tracker.example^\n@@||ads.example/ok^"),
			Parse("easyprivacy", "||pixel.example^"),
		)
		if got := obs.MatchIndexRules.Value(); got != int64(g.RuleCount()) {
			t.Fatalf("round %d: match.index_rules = %d, want the live group's %d", round, got, g.RuleCount())
		}
		if round == 0 {
			tokens = obs.MatchIndexTokens.Value()
		} else if got := obs.MatchIndexTokens.Value(); got != tokens || got == 0 {
			t.Fatalf("round %d: match.index_tokens = %d, want round 0's %d", round, got, tokens)
		}
	}
}

// TestEngineConcurrentMatch exercises the compiled-index publication
// and the pooled scratch under the race detector.
func TestEngineConcurrentMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGroup(
		Parse("easylist", strings.Join(corpusRules(rng, 60), "\n")),
		Parse("easyprivacy", strings.Join(corpusRules(rng, 60), "\n")),
	)
	var requests []Request
	for i := 0; i < 64; i++ {
		requests = append(requests, corpusRequest(rng))
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			ok := true
			for i := 0; i < 2000; i++ {
				r := requests[(i*7+w)%len(requests)]
				d := g.Match(r)
				if d.Blocked && d.Rule == nil {
					ok = false
				}
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Error("blocked decision without a rule")
		}
	}
}
