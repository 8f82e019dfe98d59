package filterlist

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/devtools"
)

// The match-engine benchmarks: the indexed engine versus the linear
// oracle (reference_test.go) on an EasyList-scale synthetic rule set.

// benchRuleSet builds an EasyList-scale list: mostly domain-anchored
// host rules with a sprinkling of path substrings, options, and
// exceptions — the same shape distribution real lists have.
func benchRuleSet(rng *rand.Rand, n int) string {
	words := []string{"ads", "track", "beacon", "pixel", "banner", "sync", "tag", "stat", "metric", "count"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		w := words[rng.Intn(len(words))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // domain-anchored host rule
			fmt.Fprintf(&b, "||%s%d.%s-net.example^", w, i, words[rng.Intn(len(words))])
			if rng.Intn(3) == 0 {
				b.WriteString("$third-party")
			}
		case 6: // typed host rule
			fmt.Fprintf(&b, "||%s%d.example^$%s", w, i, []string{"script", "image", "websocket"}[rng.Intn(3)])
		case 7: // path substring
			fmt.Fprintf(&b, "/%s%d/%s/", w, i, words[rng.Intn(len(words))])
		case 8: // wildcard path
			fmt.Fprintf(&b, "/%s%d/*/%s^", w, i, words[rng.Intn(len(words))])
		case 9: // exception
			fmt.Fprintf(&b, "@@||cdn%d.%s.example/%s/", i, words[rng.Intn(len(words))], w)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// benchRequests builds a request mix: mostly non-matching traffic (the
// crawl reality) plus a slice of URLs that hit rules.
func benchRequests(rng *rand.Rand, n int) []Request {
	words := []string{"page", "article", "story", "asset", "img", "css", "app", "vendor", "main", "chunk"}
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		var u string
		if i%8 == 0 { // matching candidates: hosts shaped like the rule set's
			u = fmt.Sprintf("http://ads%d.track-net.example/pixel/%d", rng.Intn(2000), i)
		} else {
			u = fmt.Sprintf("http://site%d.example/%s/%s%d.js",
				rng.Intn(500), words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
		}
		reqs = append(reqs, Request{
			URL:      mustParse(u),
			Type:     []devtools.ResourceType{devtools.ResourceScript, devtools.ResourceImage, devtools.ResourceXHR}[i%3],
			PageHost: fmt.Sprintf("pub%d.example", i%50),
		})
	}
	return reqs
}

func benchGroup(nRules int) *Group {
	rng := rand.New(rand.NewSource(42))
	half := nRules / 2
	return NewGroup(
		Parse("easylist", benchRuleSet(rng, half)),
		Parse("easyprivacy", benchRuleSet(rng, nRules-half)),
	)
}

const benchScale = 20000 // EasyList-scale active rules

// BenchmarkMatchIndexed measures the reverse-index engine: every op is
// a full tokenize + index lookup.
func BenchmarkMatchIndexed(b *testing.B) {
	g := benchGroup(benchScale)
	reqs := benchRequests(rand.New(rand.NewSource(7)), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(reqs[i%len(reqs)])
	}
}

// BenchmarkMatchReference measures the linear oracle on the same rule
// set and traffic — the seed implementation's cost.
func BenchmarkMatchReference(b *testing.B) {
	g := benchGroup(benchScale)
	reqs := benchRequests(rand.New(rand.NewSource(7)), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.refMatch(reqs[i%len(reqs)])
	}
}

// BenchmarkMatchParallel measures contention across crawl workers on
// the shared group (immutable index, pooled scratch).
func BenchmarkMatchParallel(b *testing.B) {
	g := benchGroup(benchScale)
	reqs := benchRequests(rand.New(rand.NewSource(7)), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.Match(reqs[i%len(reqs)])
			i++
		}
	})
}

// BenchmarkMatchTokenize isolates the per-request prepare cost (lower
// once + tokenize once).
func BenchmarkMatchTokenize(b *testing.B) {
	u := mustParse("http://ads123.track-net.example/pixel/4711?uid=42&sync=1")
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.prepare(u)
	}
}

// TestIndexedMatchZeroAlloc holds the engine to its budget: a match —
// lower-case, tokenize, index lookup, decision — allocates nothing once
// the pooled scratch is warm, hit or miss, through the group (the
// labeler's path) and through a single list. Either entry point that
// stopped returning its scratch to the pool would allocate one per
// match.
func TestIndexedMatchZeroAlloc(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
	g := benchGroup(2000)
	reqs := benchRequests(rand.New(rand.NewSource(7)), 256)
	for _, tc := range []struct {
		name  string
		match func(Request) Decision
	}{
		{"Group.Match", g.Match},
		{"List.Match", g.Lists[0].Match},
	} {
		run := func() {
			for _, r := range reqs {
				tc.match(r)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per %d matches, want 0", tc.name, allocs, len(reqs))
		}
	}
}
