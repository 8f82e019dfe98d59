// Package webgen generates the synthetic web the crawler measures: a
// deterministic ecosystem of publishers and third-party companies whose
// behaviour profiles are calibrated to the marginals the paper reports,
// so every table and figure reproduces in shape.
//
// The registry below names the companies the paper names (DoubleClick,
// Facebook, 33across, Hotjar, LuckyOrange, TruConversion, Lockerdome,
// Zopim, Intercom, …) and gives each the WebSocket behaviour §4
// attributes to it. A generated long tail of ad-tech domains supplies the
// ~75 unique pre-patch A&A initiators of Table 1 that shrink to ~23
// after the Chrome 58 release.
package webgen

import (
	"repro/internal/payload"
)

// Era distinguishes crawls before and after the Chrome 58 patch
// (April 19, 2017).
type Era int

// Eras.
const (
	EraPrePatch Era = iota
	EraPostPatch
)

// String names the era.
func (e Era) String() string {
	if e == EraPrePatch {
		return "pre-patch"
	}
	return "post-patch"
}

// Category classifies a company's business, mirroring §4.2's taxonomy.
type Category string

// Categories.
const (
	CatAdExchange    Category = "ad-exchange"
	CatAdPlatform    Category = "ad-platform"
	CatAnalytics     Category = "analytics"
	CatSessionReplay Category = "session-replay"
	CatLiveChat      Category = "live-chat"
	CatComments      Category = "comments"
	CatSocialWidget  Category = "social-widget"
	CatRealtimePush  Category = "realtime-push"
	CatCDN           Category = "cdn"
	CatCRN           Category = "content-recommendation"
	CatFeed          Category = "data-feed"
)

// IntRange is an inclusive [Min, Max] integer range sampled per use.
type IntRange struct{ Min, Max int }

// sample draws uniformly from the range using the given roll in [0,1).
func (r IntRange) sample(roll float64) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + int(roll*float64(r.Max-r.Min+1))
}

// InitiatorStyle describes who opens a company's sockets.
type InitiatorStyle int

// Initiator styles.
const (
	// InitSelf: the company's own script opens sockets (initiator =
	// company domain). The Zopim/Intercom self-socket pattern.
	InitSelf InitiatorStyle = iota
	// InitFirstParty: the publisher's inline loader snippet opens the
	// socket (initiator = publisher domain). How chat widgets acquire
	// their many benign initiators in Table 3.
	InitFirstParty
	// InitPartner: the company's script opens sockets to domains drawn
	// from its partner pool (the DoubleClick → 33across pattern).
	InitPartner
)

// Company is one third-party service in the ecosystem.
type Company struct {
	// Name is the display name ("DoubleClick").
	Name string
	// Domain is the registrable domain ("doubleclick.net").
	Domain string
	// ScriptHost serves the company's script; defaults to
	// "cdn." + Domain. LuckyOrange-style companies serve from a
	// Cloudfront host instead (see CloudfrontHost).
	ScriptHost string
	// CloudfrontHost, when set, is the opaque CDN host the script is
	// served from; the labeler must map it back to the company the way
	// the authors manually mapped 13 Cloudfront domains (§3.2).
	CloudfrontHost string
	// Category classifies the service.
	Category Category
	// AA marks advertising & analytics companies (ground truth; the
	// labeler must re-derive this from filter lists).
	AA bool
	// EasyList / EasyPrivacy place the company's domain in the
	// generated rule lists. PartialRules lists only the /track and
	// /beacon paths, so the domain earns A&A observations without its
	// widget script being blockable — reproducing why only ~5% of
	// chains into A&A receivers were blockable (§4.2).
	EasyList, EasyPrivacy, PartialRules bool

	// --- initiator behaviour ---

	// InitiatesWS reports, per era, whether the company's deployments
	// open WebSockets at all. Index by Era.
	InitiatesWS [2]bool
	// Style selects who opens the sockets.
	Style InitiatorStyle
	// SocketsPerPage is how many sockets each active page opens.
	SocketsPerPage IntRange
	// PagesWithSockets is the probability a given page of a deploying
	// site runs the socket path (widgets load lazily).
	PagesWithSockets float64
	// PartnerPool lists receiver domains for InitPartner companies.
	PartnerPool []string
	// PartnersPerPage is how many distinct partners each active page
	// dials.
	PartnersPerPage IntRange
	// SendKinds lists the message bundles sent per socket (each inner
	// slice is one message of payload kinds).
	SendKinds [][]string
	// SendBinary sends an undecodable binary frame with this
	// probability.
	SendBinary float64
	// SendNothing leaves the socket silent (no data frames) with this
	// probability — Table 5's 17.8% "No data" row.
	SendNothing float64
	// CookieProb is the chance the handshake carries a Cookie header.
	CookieProb float64

	// --- receiver behaviour ---

	// AcceptsWS marks companies hosting WebSocket endpoints.
	AcceptsWS bool
	// WSPath is the endpoint path (default "/ws").
	WSPath string
	// RespondKinds lists response kinds the endpoint pushes, one
	// message each, after the handshake.
	RespondKinds []string
	// RespondNothing sends no messages with this probability —
	// Table 5's 21.3% received "No data" row.
	RespondNothing float64
	// CollectsFingerprint marks receivers whose endpoints harvest the
	// full fingerprinting bundle from whoever connects (the 33across
	// pattern: 97%% of fingerprinting pairs had it as receiver, §4.3).
	CollectsFingerprint bool
	// AdCDNHost, for Lockerdome-style ad servers, hosts the creatives
	// referenced in adurls responses (deliberately absent from
	// EasyList).
	AdCDNHost string

	// --- deployment ---

	// DeployWeight drives how often the company appears on publishers
	// that match its profile (relative weight within its category
	// group).
	DeployWeight float64
	// HTTPPresence: the company also serves plain HTTP resources
	// (scripts, pixels, beacons) on deploying pages — the HTTP/S
	// comparison column of Table 5 and the 27%-blockable baseline.
	HTTPPresence bool
	// BeaconKinds are the payload kinds POSTed over HTTP beacons.
	BeaconKinds [][]string
}

// scriptHost returns the host the company's script loads from.
func (c *Company) scriptHost() string {
	sub, domain := c.scriptHostParts()
	return sub + domain
}

// scriptHostParts is scriptHost in two pieces, for callers that append
// it to a URL without building the host first: an explicit host as
// ("", host), the default as ("cdn.", Domain).
func (c *Company) scriptHostParts() (sub, domain string) {
	switch {
	case c.CloudfrontHost != "":
		return "", c.CloudfrontHost
	case c.ScriptHost != "":
		return "", c.ScriptHost
	}
	return "cdn.", c.Domain
}

// fingerprint is the 33across-bound bundle.
var fingerprint = payload.FingerprintKinds

// NamedCompanies returns the registry of companies the paper names. The
// slice is freshly built per call so worlds can be mutated independently.
func NamedCompanies() []*Company {
	return []*Company{
		// ---- Major ad platforms: WebSocket initiators pre-patch only.
		// They sent fingerprinting data to 33across (§4.3) and stopped
		// after Chrome 58 (§4.1).
		{
			Name: "DoubleClick", Domain: "doubleclick.net", Category: CatAdExchange,
			AA: true, EasyList: true,
			InitiatesWS: [2]bool{true, false}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.16,
			PartnerPool:     []string{"33across.com", "zopim.com", "adnxs.com", "googlesyndication.com", "pusher.com", "realtime.co", "freshrelevance.com", "lockerdome.com", "addthis.com"},
			PartnersPerPage: IntRange{1, 2},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing:     0.1, CookieProb: 0.8, DeployWeight: 3.0, HTTPPresence: true,
			BeaconKinds: [][]string{{payload.KindUA, payload.KindCookie, payload.KindUserID}},
		},
		{
			Name: "Facebook", Domain: "facebook.com", Category: CatSocialWidget,
			// Only Facebook's tracking paths are listed: blocking the
			// whole domain would break embedded content everywhere.
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, false}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 3}, PagesWithSockets: 0.18,
			PartnerPool:     facebookPartnerPool(),
			PartnersPerPage: IntRange{1, 3},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing:     0.1, CookieProb: 0.8, DeployWeight: 2.8, HTTPPresence: true,
			BeaconKinds: [][]string{{payload.KindUA, payload.KindCookie}},
		},
		{
			Name: "AddThis", Domain: "addthis.com", Category: CatSocialWidget,
			AA: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, false}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.2,
			PartnerPool:     []string{"33across.com", "realtime.co", "pusher.com", "intercom.io", "feedjit.com", "freshrelevance.com", "cloudflare.com", "inspectlet.com"},
			PartnersPerPage: IntRange{1, 2},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie, payload.KindIP}},
			CookieProb:      0.8, DeployWeight: 1.6, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON}, RespondNothing: 0.2,
		},

		// ---- Google properties: persist across the patch (Table 2
		// shows google initiating in both windows).
		{
			Name: "Google", Domain: "google.com", Category: CatAdPlatform,
			AA: true, PartialRules: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.3,
			PartnerPool:     []string{"zopim.com", "33across.com", "googlesyndication.com", "pusher.com", "realtime.co", "smartsupp.com", "cloudflare.com"},
			PartnersPerPage: IntRange{1, 2},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing:     0.1, CookieProb: 0.75, DeployWeight: 3.2, HTTPPresence: true,
			BeaconKinds: [][]string{{payload.KindUA, payload.KindCookie, payload.KindLanguage}},
		},
		{
			Name: "Google Syndication", Domain: "googlesyndication.com", Category: CatAdExchange,
			AA: true, EasyList: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.2,
			PartnerPool:     []string{"33across.com", "adnxs.com", "realtime.co", "cloudflare.com"},
			PartnersPerPage: IntRange{1, 1},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb:      0.85, DeployWeight: 2.2, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespJSON}, RespondNothing: 0.3,
		},
		{
			Name: "AppNexus", Domain: "adnxs.com", Category: CatAdExchange,
			AA: true, EasyList: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.2,
			PartnerPool:     []string{"33across.com", "realtime.co", "googlesyndication.com"},
			PartnersPerPage: IntRange{1, 1},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie, payload.KindIP, payload.KindUserID}},
			CookieProb:      0.8, DeployWeight: 1.8, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON}, RespondNothing: 0.25,
		},
		{
			Name: "YouTube", Domain: "youtube.com", Category: CatSocialWidget,
			AA: true, PartialRules: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.25,
			PartnerPool:     []string{"realtime.co", "pusher.com", "cloudflare.com", "googlesyndication.com", "33across.com"},
			PartnersPerPage: IntRange{1, 2},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb:      0.7, DeployWeight: 1.5, HTTPPresence: true,
		},
		{
			Name: "ShareThis", Domain: "sharethis.com", Category: CatSocialWidget,
			AA: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.2,
			PartnerPool:     []string{"33across.com", "pusher.com", "realtime.co", "intercom.io"},
			PartnersPerPage: IntRange{1, 1},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb:      0.75, DeployWeight: 1.2, HTTPPresence: true,
		},
		{
			Name: "Twitter", Domain: "twitter.com", Category: CatSocialWidget,
			AA: true, PartialRules: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.15,
			PartnerPool:     []string{"pusher.com", "realtime.co", "33across.com", "cloudflare.com", "intercom.io"},
			PartnersPerPage: IntRange{1, 1},
			SendKinds:       [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb:      0.8, DeployWeight: 1.2, HTTPPresence: true,
		},

		// ---- The fingerprint harvester (§4.3): 33across receives the
		// fingerprinting bundle from 97% of fingerprinting pairs.
		{
			Name: "33across", Domain: "33across.com", Category: CatAdPlatform,
			// Its tag itself evades the lists (only /track paths are
			// named) — which is exactly why chains into its sockets
			// were rarely blockable (§4.2).
			AA: true, EasyList: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.2,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb: 0.85, DeployWeight: 1.6, HTTPPresence: true,
			CollectsFingerprint: true,
			// A thin trickle of fingerprinting also flows over HTTP
			// (Table 5's small HTTP-side Screen/Device/etc. counts).
			BeaconKinds: [][]string{{payload.KindUA, payload.KindCookie}, fingerprint},
			AcceptsWS:   true, RespondKinds: []string{payload.RespJSON, payload.RespJSON, payload.RespJSON, payload.RespBinary}, RespondNothing: 0.25,
		},

		// ---- Lockerdome: serves ad URLs over WebSockets from an
		// unlisted CDN host (§4.3, Figure 4).
		{
			Name: "Lockerdome", Domain: "lockerdome.com", Category: CatCRN,
			// Only Lockerdome's /track API paths are listed: its widget
			// script and cdn1.lockerdome.com creatives stay unblocked,
			// which is exactly how the WRB let it serve ads (§4.3).
			AA: true, EasyList: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.45,
			SendKinds:   [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing: 0.15, CookieProb: 0.8, DeployWeight: 1.1, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespAdURLs, payload.RespHTML},
			AdCDNHost: "cdn1.lockerdome.com",
		},

		// ---- Session replay services: upload the serialized DOM
		// (§4.3). Hotjar also initiates sockets to Intercom (Table 4).
		{
			Name: "Hotjar", Domain: "hotjar.com", Category: CatSessionReplay,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.35,
			PartnerPool: []string{"intercom.io", "pusher.com", "33across.com", "cloudflare.com"}, PartnersPerPage: IntRange{0, 1},
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie}, {payload.KindDOM}},
			CookieProb: 0.7, DeployWeight: 2.0, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespJSON}, RespondNothing: 0.1,
		},
		{
			Name: "LuckyOrange", Domain: "luckyorange.com", Category: CatSessionReplay,
			AA: true, EasyPrivacy: true, PartialRules: true,
			CloudfrontHost: "d10lpsik1i8c69.cloudfront.net",
			InitiatesWS:    [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.35,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie, payload.KindUserID}, {payload.KindDOM}, {payload.KindScroll, payload.KindViewport}},
			CookieProb: 0.85, DeployWeight: 0.9, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML}, RespondNothing: 0.15,
		},
		{
			Name: "TruConversion", Domain: "truconversion.com", Category: CatSessionReplay,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.3,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie}, {payload.KindDOM}},
			CookieProb: 0.8, DeployWeight: 0.6, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML}, RespondNothing: 0.2,
		},
		{
			Name: "Inspectlet", Domain: "inspectlet.com", Category: CatSessionReplay,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.3,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie, payload.KindUserID}},
			CookieProb: 0.7, DeployWeight: 1.0, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON, payload.RespHTML}, RespondNothing: 0.2,
		},
		{
			Name: "SimpleHeatmaps", Domain: "simpleheatmaps.com", Category: CatSessionReplay,
			AA: true, EasyPrivacy: true, PartialRules: true,
			CloudfrontHost: "d3e54v103j8qbb.cloudfront.net",
			InitiatesWS:    [2]bool{true, true}, Style: InitFirstParty,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.4,
			SendKinds:  [][]string{{payload.KindUA, payload.KindScroll, payload.KindViewport}},
			CookieProb: 0.5, DeployWeight: 0.3, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON}, RespondNothing: 0.4,
		},

		// ---- Live-chat platforms: legitimate WebSocket users (§6 "The
		// Good") with huge self-socket counts (Table 4's last row) and
		// many benign first-party initiators (Table 3).
		{
			Name: "Intercom", Domain: "intercom.io", Category: CatLiveChat,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitFirstParty,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.6,
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.25, CookieProb: 0.65, DeployWeight: 3.5, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespHTML, payload.RespHTML, payload.RespJSON}, RespondNothing: 0.15,
		},
		{
			Name: "Zopim", Domain: "zopim.com", Category: CatLiveChat,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{3, 6}, PagesWithSockets: 0.8,
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.45, CookieProb: 0.55, DeployWeight: 2.6, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML}, RespondNothing: 0.3,
		},
		{
			Name: "Smartsupp", Domain: "smartsupp.com", Category: CatLiveChat,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitFirstParty,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.5,
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.35, CookieProb: 0.6, DeployWeight: 1.2, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespImage}, RespondNothing: 0.3,
		},
		{
			Name: "Velaro", Domain: "velaro.com", Category: CatLiveChat,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitFirstParty,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.4,
			SendKinds:   [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing: 0.3, CookieProb: 0.7, DeployWeight: 0.4, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML}, RespondNothing: 0.35,
		},
		{
			Name: "ClickDesk", Domain: "clickdesk.com", Category: CatLiveChat,
			AA:          false, // a chat vendor whose resources never match the lists
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.5,
			PartnerPool: []string{"pusher.com"}, PartnersPerPage: IntRange{1, 1},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.4, CookieProb: 0.4, DeployWeight: 0.7, HTTPPresence: true,
		},
		{
			Name: "GetAmbassador", Domain: "getambassador.com", Category: CatAnalytics,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.45,
			PartnerPool: []string{"pusher.com"}, PartnersPerPage: IntRange{1, 1},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.35, CookieProb: 0.4, DeployWeight: 0.6, HTTPPresence: true,
		},

		// ---- Realtime/push infrastructure: A&A receivers with mixed
		// initiator populations.
		{
			Name: "Pusher", Domain: "pusher.com", Category: CatRealtimePush,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.4,
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.4, CookieProb: 0.5, DeployWeight: 1.1, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON, payload.RespJSON, payload.RespJSON, payload.RespJS}, RespondNothing: 0.25,
		},
		{
			Name: "Realtime", Domain: "realtime.co", Category: CatRealtimePush,
			AA: true, EasyPrivacy: true, PartialRules: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespHTML, payload.RespHTML, payload.RespJSON}, RespondNothing: 0.2,
			DeployWeight: 0.8, HTTPPresence: true,
		},
		{
			Name: "WebSpectator", Domain: "webspectator.com", Category: CatAdPlatform,
			AA: true, EasyList: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 3}, PagesWithSockets: 0.55,
			PartnerPool: []string{"realtime.co"}, PartnersPerPage: IntRange{1, 1},
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie}},
			CookieProb: 0.8, DeployWeight: 0.9, HTTPPresence: true,
		},
		{
			Name: "Cloudflare", Domain: "cloudflare.com", Category: CatCDN,
			AA: true, EasyPrivacy: true, PartialRules: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespJSON}, RespondNothing: 0.3,
			DeployWeight: 1.4, HTTPPresence: true,
		},
		{
			Name: "Feedjit", Domain: "feedjit.com", Category: CatAnalytics,
			AA: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitFirstParty,
			SocketsPerPage: IntRange{1, 3}, PagesWithSockets: 0.6,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie, payload.KindIP}},
			CookieProb: 0.8, DeployWeight: 0.9, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML}, RespondNothing: 0.2,
		},
		{
			Name: "FreshRelevance", Domain: "freshrelevance.com", Category: CatAnalytics,
			AA: true, EasyPrivacy: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 1}, PagesWithSockets: 0.4,
			SendKinds:  [][]string{{payload.KindUA, payload.KindCookie, payload.KindUserID}},
			CookieProb: 0.8, DeployWeight: 0.5, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespJSON}, RespondNothing: 0.25,
		},
		{
			Name: "Disqus", Domain: "disqus.com", Category: CatComments,
			AA: true, EasyPrivacy: true, PartialRules: true,
			InitiatesWS: [2]bool{true, true}, Style: InitSelf,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.55,
			SendKinds:   [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing: 0.3, CookieProb: 0.7, DeployWeight: 1.5, HTTPPresence: true,
			AcceptsWS: true, RespondKinds: []string{payload.RespHTML, payload.RespHTML, payload.RespJSON}, RespondNothing: 0.2,
		},

		// ---- Non-A&A socket users: benign infrastructure whose
		// sockets dilute the A&A fractions to the paper's 60–75%.
		{
			Name: "ESPN CDN", Domain: "espncdn.com", Category: CatCDN,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.4,
			PartnerPool: feedPartnerPool()[:32], PartnersPerPage: IntRange{2, 4},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.5, CookieProb: 0.3, DeployWeight: 0.0, // deployed only on its named publisher
			HTTPPresence: true,
		},
		{
			Name: "H-CDN", Domain: "h-cdn.com", Category: CatCDN,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.3,
			PartnerPool: feedPartnerPool()[4:24], PartnersPerPage: IntRange{2, 3},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.5, CookieProb: 0.2, DeployWeight: 0.0,
			HTTPPresence: true,
		},
		{
			Name: "CDN77", Domain: "cdn77.com", Category: CatCDN,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.5,
			PartnerPool: []string{"smartsupp.com"}, PartnersPerPage: IntRange{1, 1},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.4, CookieProb: 0.3, DeployWeight: 0.5, HTTPPresence: true,
		},
		{
			Name: "Blogger", Domain: "blogger.com", Category: CatSocialWidget,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.3,
			PartnerPool: []string{"feedjit.com"}, PartnersPerPage: IntRange{1, 1},
			SendKinds:   [][]string{{payload.KindUA, payload.KindCookie}},
			SendNothing: 0.2, CookieProb: 0.6, DeployWeight: 0.7, HTTPPresence: true,
		},
		{
			Name: "Google APIs", Domain: "googleapis.com", Category: CatCDN,
			AA:          false,
			InitiatesWS: [2]bool{true, true}, Style: InitPartner,
			SocketsPerPage: IntRange{1, 2}, PagesWithSockets: 0.22,
			PartnerPool: []string{"sportingindex.com", "firebaseio-rt.net", "gstatic-rt.net"}, PartnersPerPage: IntRange{1, 2},
			SendKinds:   [][]string{{payload.KindUA}},
			SendNothing: 0.4, CookieProb: 0.3, DeployWeight: 1.6, HTTPPresence: true,
		},
	}
}

// facebookPartnerPool gives Facebook's scripts their broad receiver set
// (35 receivers, 11 of them A&A, in Table 2).
func facebookPartnerPool() []string {
	pool := []string{
		// A&A receivers.
		"33across.com", "zopim.com", "intercom.io", "pusher.com",
		"realtime.co", "inspectlet.com", "addthis.com", "hotjar.com",
		"cloudflare.com", "googlesyndication.com", "feedjit.com",
	}
	// Non-A&A infrastructure endpoints.
	for _, d := range feedPartnerPool()[:24] {
		pool = append(pool, d)
	}
	return pool
}
