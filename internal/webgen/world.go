package webgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/detrand"
	"repro/internal/urlutil"
)

// Config parameterizes one synthetic-web instance. A World is a pure
// function of its Config: equal configs yield byte-identical webs.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// NumPublishers is the number of generic publishers (named
	// publishers from the paper are added on top).
	NumPublishers int
	// Era selects pre- or post-patch company behaviour.
	Era Era
	// CrawlIndex (0-3) perturbs session-level rolls between crawls of
	// the same era, the way two crawls of the real web differ.
	CrawlIndex int
}

// DefaultConfig returns the scale used by tests and examples.
func DefaultConfig() Config {
	return Config{Seed: 20170419, NumPublishers: 400, Era: EraPrePatch}
}

// Publisher is one website in the synthetic Alexa sample.
type Publisher struct {
	// Index is the publisher's position in World.Publishers.
	Index int
	// Domain is the site's registrable domain.
	Domain string
	// Rank is the synthetic Alexa rank (1 to ~1M).
	Rank int
	// Category is the Alexa top-level category.
	Category string
	// NumPages is how many article pages exist beyond the homepage.
	NumPages int
	// Services are the third parties deployed on this site.
	Services []*Company
	// SelfWS marks sites hosting their own first-party WebSocket (the
	// slither.io pattern: non-A&A initiator and receiver).
	SelfWS bool
	// Named marks publishers lifted from the paper's tables.
	Named bool
}

// HasService reports whether the publisher deploys the given company.
func (p *Publisher) HasService(domain string) bool {
	for _, c := range p.Services {
		if c.Domain == domain {
			return true
		}
	}
	return false
}

// World is one generated synthetic web.
type World struct {
	Cfg       Config
	Companies []*Company
	// Publishers is sorted by rank.
	Publishers []*Publisher

	companyByDomain map[string]*Company
	companyByHost   map[string]*Company // script hosts and CDN hosts
	pubByDomain     map[string]*Publisher
	wsReceivers     map[string]*Company // registrable domain -> receiving company (nil entry = generic feed endpoint)
	feedDomains     map[string]bool
}

// alexaCategories mirrors the 17 Alexa top categories the paper sampled.
var alexaCategories = []string{
	"Arts", "Business", "Computers", "Games", "Health", "Home", "Kids",
	"News", "Recreation", "Reference", "Regional", "Science", "Shopping",
	"Society", "Sports", "Adult", "World",
}

// NewWorld generates the ecosystem for cfg.
func NewWorld(cfg Config) *World {
	w := &World{
		Cfg:             cfg,
		Companies:       AllCompanies(),
		companyByDomain: map[string]*Company{},
		companyByHost:   map[string]*Company{},
		pubByDomain:     map[string]*Publisher{},
		wsReceivers:     map[string]*Company{},
		feedDomains:     map[string]bool{},
	}
	for _, c := range w.Companies {
		w.companyByDomain[c.Domain] = c
		w.companyByHost[c.scriptHost()] = c
		if c.AdCDNHost != "" {
			w.companyByHost[c.AdCDNHost] = c
		}
		if c.AcceptsWS {
			w.wsReceivers[c.Domain] = c
		}
	}
	// Partner-pool endpoints that are not registered companies become
	// generic feed receivers.
	for _, c := range w.Companies {
		for _, d := range c.PartnerPool {
			reg := urlutil.RegistrableDomain(d)
			if _, ok := w.companyByDomain[reg]; !ok {
				w.feedDomains[reg] = true
			}
		}
	}
	w.generatePublishers()
	return w
}

// rng returns a deterministic generator for a namespaced key.
func (w *World) rng(parts ...string) *rand.Rand {
	var buf [48]byte
	key := strconv.AppendInt(buf[:0], w.Cfg.Seed, 10)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(w.Cfg.CrawlIndex), 10)
	key = append(key, '|')
	return detrand.New(keySeed(key, parts))
}

// stableRng is like rng but identical across crawls (deployments persist
// between crawls the way real sites keep their vendors).
func (w *World) stableRng(parts ...string) *rand.Rand {
	var buf [48]byte
	key := strconv.AppendInt(buf[:0], w.Cfg.Seed, 10)
	key = append(key, "|stable|"...)
	return detrand.New(keySeed(key, parts))
}

// keySeed is FNV-1a (hash/fnv's New64a) over prefix followed by each
// part and a NUL terminator, computed in place: the hash.Hash64
// interface would heap-allocate the state and every part.
func keySeed(prefix []byte, parts []string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range prefix {
		h = (h ^ uint64(c)) * prime64
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * prime64
		}
		h *= prime64 // the NUL terminator: h ^ 0 == h
	}
	return int64(h)
}

// namedPublisherSpec seeds the publishers the paper's tables name as
// WebSocket initiators (first-party Intercom users, ESPN's CDN, the
// slither self-socket game).
type namedPublisherSpec struct {
	domain   string
	rank     int
	category string
	services []string
	selfWS   bool
}

func namedPublishers() []namedPublisherSpec {
	return []namedPublisherSpec{
		{"espn.com", 120, "Sports", []string{"espncdn.com", "doubleclick.net", "google-analytics.com", "webspectator.com"}, false},
		{"slither.io", 310, "Games", []string{"google-analytics.com"}, true},
		{"twitchclips.tv", 540, "Games", []string{"h-cdn.com", "doubleclick.net"}, false},
		{"acenterforrecovery.com", 312000, "Health", []string{"intercom.io", "google-analytics.com"}, false},
		{"vatit.com", 87000, "Business", []string{"intercom.io", "google.com"}, false},
		{"plymouthart.org", 423000, "Arts", []string{"intercom.io"}, false},
		{"welchllp.com", 512000, "Business", []string{"intercom.io", "google-analytics.com"}, false},
		{"biozone.com", 234000, "Science", []string{"intercom.io"}, false},
		{"rubymonk.com", 165000, "Computers", []string{"intercom.io", "googleapis.com"}, false},
		{"sportingindex.com", 45000, "Sports", []string{"googleapis.com", "google-analytics.com"}, false},
	}
}

func (w *World) generatePublishers() {
	for i, spec := range namedPublishers() {
		p := &Publisher{
			Index:    i,
			Domain:   spec.domain,
			Rank:     spec.rank,
			Category: spec.category,
			NumPages: 10 + i%8,
			SelfWS:   spec.selfWS,
			Named:    true,
		}
		for _, d := range spec.services {
			if c := w.companyByDomain[d]; c != nil {
				p.Services = append(p.Services, c)
			}
		}
		w.Publishers = append(w.Publishers, p)
	}
	base := len(w.Publishers)
	tlds := []string{"com", "net", "org", "info", "co.uk", "com.au", "io"}
	for i := 0; i < w.Cfg.NumPublishers; i++ {
		rng := w.stableRng("pub", strconv.Itoa(i))
		p := &Publisher{
			Index:    base + i,
			Domain:   fmt.Sprintf("pub%04d.%s", i, tlds[rng.Intn(len(tlds))]),
			Rank:     w.rankFor(i, rng),
			Category: alexaCategories[rng.Intn(len(alexaCategories))],
			NumPages: 8 + rng.Intn(12),
		}
		w.deployServices(p, rng)
		w.Publishers = append(w.Publishers, p)
	}
	sort.Slice(w.Publishers, func(a, b int) bool { return w.Publishers[a].Rank < w.Publishers[b].Rank })
	for i, p := range w.Publishers {
		p.Index = i
		w.pubByDomain[p.Domain] = p
	}
}

// rankFor stratifies ranks the way the paper's sample skews popular:
// 30% in the top 10K, 20% between 10K and 100K, the rest out to 1M.
func (w *World) rankFor(i int, rng *rand.Rand) int {
	switch roll := rng.Float64(); {
	case roll < 0.30:
		return 1 + rng.Intn(10_000)
	case roll < 0.50:
		return 10_000 + rng.Intn(90_000)
	default:
		return 100_000 + rng.Intn(900_000)
	}
}

// socketSiteProb gives the probability that a publisher at the given
// rank is a WebSocket-using site, shaped to Figure 3: most prevalent in
// the top 10K, dropping between 10K and 20K, flat in the long tail.
func socketSiteProb(rank int) float64 {
	switch {
	case rank <= 10_000:
		return 0.042
	case rank <= 20_000:
		return 0.026
	case rank <= 100_000:
		return 0.017
	default:
		return 0.013
	}
}

// deployServices assigns a generic publisher its third-party stack.
func (w *World) deployServices(p *Publisher, rng *rand.Rand) {
	// Every site carries ordinary HTTP A&A and benign third parties
	// (socket initiators arrive only through the profiles below, but
	// passive socket receivers like realtime.co serve HTTP assets here
	// too — that is how they earn label observations).
	w.deployFrom(p, rng, func(c *Company) bool {
		return c.HTTPPresence && !c.InitiatesWS[0] && c.DeployWeight > 0
	}, 2+rng.Intn(5))

	// Figure 3's shape: socket services concentrate on top-ranked
	// publishers.
	if rng.Float64() >= socketSiteProb(p.Rank) {
		// Not a socket site; a small chance of self-hosted websockets
		// remains (internal dashboards, games).
		p.SelfWS = rng.Float64() < 0.0015
		return
	}

	type profile struct {
		weight float64
		pick   func()
	}
	profiles := []profile{
		{0.40, func() { // live chat / comments
			w.deployFrom(p, rng, func(c *Company) bool {
				return (c.Category == CatLiveChat || c.Category == CatComments) && c.DeployWeight > 0
			}, 1)
		}},
		{0.13, func() { // session replay
			w.deployFrom(p, rng, func(c *Company) bool {
				return c.Category == CatSessionReplay && c.DeployWeight > 0
			}, 1)
		}},
		{0.12, func() { // realtime analytics / push widgets
			w.deployFrom(p, rng, func(c *Company) bool {
				return (c.Category == CatAnalytics || c.Category == CatRealtimePush) &&
					c.InitiatesWS[0] && c.DeployWeight > 0
			}, 1)
		}},
		{0.27, func() { // ad-socket stack: many A&A initiators at once
			// Ad-heavy pages really do host dozens of tags; this is
			// where the long tail of unique A&A initiators comes from.
			w.deployFrom(p, rng, func(c *Company) bool {
				return c.AA && c.InitiatesWS[0] && c.DeployWeight > 0 &&
					(c.Category == CatAdExchange || c.Category == CatAdPlatform ||
						c.Category == CatSocialWidget || c.Category == CatCRN)
			}, 8+rng.Intn(12))
		}},
		{0.11, func() { // benign realtime infrastructure
			w.deployFrom(p, rng, func(c *Company) bool {
				return !c.AA && c.InitiatesWS[0] && c.DeployWeight > 0
			}, 1)
			if rng.Float64() < 0.25 {
				p.SelfWS = true
			}
		}},
	}
	// A socket site gets one primary profile, and sometimes a second.
	total := 0.0
	for _, pr := range profiles {
		total += pr.weight
	}
	roll := rng.Float64() * total
	for _, pr := range profiles {
		if roll < pr.weight {
			pr.pick()
			break
		}
		roll -= pr.weight
	}
	if rng.Float64() < 0.30 {
		idx := rng.Intn(len(profiles))
		profiles[idx].pick()
	}
	// Top-ranked ad-heavy sites additionally host realtime ad units.
	if p.Rank <= 10_000 && rng.Float64() < 0.25 {
		w.deployFrom(p, rng, func(c *Company) bool {
			return c.Domain == "webspectator.com" || c.Domain == "lockerdome.com" || c.Domain == "33across.com"
		}, 1)
	}
}

// deployFrom adds up to n companies matching the predicate, weighted by
// DeployWeight, without duplicates.
func (w *World) deployFrom(p *Publisher, rng *rand.Rand, match func(*Company) bool, n int) {
	var pool []*Company
	total := 0.0
	for _, c := range w.Companies {
		if match(c) && !p.HasService(c.Domain) {
			pool = append(pool, c)
			total += c.DeployWeight
		}
	}
	for k := 0; k < n && len(pool) > 0; k++ {
		roll := rng.Float64() * total
		idx := len(pool) - 1
		for i, c := range pool {
			if roll < c.DeployWeight {
				idx = i
				break
			}
			roll -= c.DeployWeight
		}
		chosen := pool[idx]
		p.Services = append(p.Services, chosen)
		total -= chosen.DeployWeight
		pool = append(pool[:idx], pool[idx+1:]...)
	}
}

// PublisherByDomain looks up a publisher.
func (w *World) PublisherByDomain(domain string) *Publisher { return w.pubByDomain[domain] }

// CompanyByDomain looks up a company by registrable domain.
func (w *World) CompanyByDomain(domain string) *Company { return w.companyByDomain[domain] }

// CompanyByHost looks up a company by one of its serving hosts, its
// exact domain, or a registrable-domain fallback.
func (w *World) CompanyByHost(host string) *Company {
	if c, ok := w.companyByHost[host]; ok {
		return c
	}
	if c, ok := w.companyByDomain[host]; ok {
		return c
	}
	return w.companyByDomain[urlutil.RegistrableDomain(host)]
}

// Hosts returns every hostname the world serves, for DNS-override style
// resolution in the browser and server.
func (w *World) Hosts() []string {
	seen := map[string]bool{}
	var out []string
	add := func(h string) {
		if h != "" && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, p := range w.Publishers {
		add(p.Domain)
	}
	for _, c := range w.Companies {
		add(c.Domain)
		add(c.scriptHost())
		add(c.AdCDNHost)
	}
	for d := range w.feedDomains {
		add(d)
	}
	sort.Strings(out)
	return out
}

// KnownHost reports whether the world serves the host.
func (w *World) KnownHost(host string) bool {
	if _, ok := w.pubByDomain[host]; ok {
		return true
	}
	if _, ok := w.companyByHost[host]; ok {
		return true
	}
	if _, ok := w.companyByDomain[host]; ok {
		return true
	}
	reg := urlutil.RegistrableDomain(host)
	if _, ok := w.pubByDomain[reg]; ok {
		return true
	}
	if w.companyByDomain[reg] != nil {
		return true
	}
	return w.feedDomains[reg]
}
