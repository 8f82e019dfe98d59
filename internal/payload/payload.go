// Package payload synthesizes realistic network content for the
// synthetic web: the tracking data scripts exfiltrate over WebSockets and
// HTTP (user agents, cookies, fingerprinting state, serialized DOMs) and
// the content servers push back (HTML snippets, JSON, JavaScript, images,
// ad metadata).
//
// The generated bytes look like real traffic — the content classifier in
// internal/content has to find cookies, fingerprints, and DOM dumps with
// pattern matching exactly as the paper's authors did with their
// hand-built regular-expression library (§4.3).
package payload

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind names for sent data, matching the paper's Table 5 rows.
const (
	KindUA          = "ua"
	KindCookie      = "cookie"
	KindIP          = "ip"
	KindUserID      = "userid"
	KindDevice      = "device"
	KindScreen      = "screen"
	KindBrowser     = "browser"
	KindViewport    = "viewport"
	KindScroll      = "scroll"
	KindOrientation = "orientation"
	KindFirstSeen   = "firstseen"
	KindResolution  = "resolution"
	KindLanguage    = "language"
	KindDOM         = "dom"
	KindBinary      = "binary"
)

// FingerprintKinds is the bundle of fingerprinting variables the paper
// observed flowing to 33across: browser family, viewport, scroll
// position, orientation, first-seen date, and resolution, alongside
// screen and device type.
var FingerprintKinds = []string{
	KindBrowser, KindViewport, KindScroll, KindOrientation,
	KindFirstSeen, KindResolution, KindScreen, KindDevice,
}

// ClientState is the per-browser-profile state payloads draw from. One
// state persists across a site visit so identifiers stay stable the way
// real tracking identifiers do.
type ClientState struct {
	UserAgent   string
	IP          string
	UserID      string
	ClientID    string
	Language    string
	ScreenW     int
	ScreenH     int
	ViewportW   int
	ViewportH   int
	Orientation string
	DeviceType  string
	DeviceFam   string
	BrowserType string
	BrowserFam  string
	FirstSeen   string // cookie-creation date, e.g. "2017-03-14T09:26:53Z"
	// Cookies maps cookie names to values for the current site context.
	Cookies map[string]string
	// DOMSource returns the serialized DOM of the current page; set by
	// the browser before script execution so session-replay payloads
	// capture the live document.
	DOMSource func() string
}

// NewClientState builds a deterministic client profile from rng.
func NewClientState(rng *rand.Rand) *ClientState {
	chromeMinor := 2924 + rng.Intn(200)
	w, h := pick(rng, screenSizes)
	vw, vh := w-rng.Intn(120), h-120-rng.Intn(160)
	languages := []string{"en-US", "en-GB", "de-DE", "fr-FR", "es-ES", "pt-BR", "ja-JP"}
	orient := "landscape-primary"
	if rng.Intn(10) == 0 {
		orient = "portrait-primary"
	}
	return &ClientState{
		UserAgent: fmt.Sprintf(
			"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/57.0.%d.87 Safari/537.36",
			chromeMinor),
		IP:          fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(222), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254)),
		UserID:      fmt.Sprintf("%08x-%04x-%04x", rng.Uint32(), rng.Intn(0xFFFF), rng.Intn(0xFFFF)),
		ClientID:    fmt.Sprintf("GA1.2.%d.%d", 100000000+rng.Intn(900000000), 1480000000+rng.Intn(12000000)),
		Language:    languages[rng.Intn(len(languages))],
		ScreenW:     w,
		ScreenH:     h,
		ViewportW:   vw,
		ViewportH:   vh,
		Orientation: orient,
		DeviceType:  "desktop",
		DeviceFam:   "Other",
		BrowserType: "Chrome",
		BrowserFam:  "Blink",
		FirstSeen: fmt.Sprintf("2017-%02d-%02dT%02d:%02d:%02dZ",
			1+rng.Intn(4), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60)),
		Cookies: map[string]string{},
	}
}

var screenSizes = [][2]int{
	{1920, 1080}, {1366, 768}, {1536, 864}, {1440, 900}, {2560, 1440}, {1280, 800},
}

func pick(rng *rand.Rand, sizes [][2]int) (int, int) {
	s := sizes[rng.Intn(len(sizes))]
	return s[0], s[1]
}

// CookieHeader renders the state's cookies as a Cookie header value, in
// deterministic order.
func (s *ClientState) CookieHeader() string {
	if len(s.Cookies) == 0 {
		return ""
	}
	names := make([]string, 0, len(s.Cookies))
	for n := range s.Cookies {
		names = append(names, n)
	}
	// insertion order is not stable for maps; sort by name
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + s.Cookies[n]
	}
	return strings.Join(parts, "; ")
}

// AppendSynthesize appends one message carrying the named kinds to dst,
// as a URL-encoded-style tracking payload (the dominant format in real
// tracking traffic), and returns the extended slice; the message is what
// follows dst's length. Binary kinds produce undecodable bytes.
func AppendSynthesize(dst []byte, kinds []string, s *ClientState, rng *rand.Rand) []byte {
	start := len(dst)
	field := func(name string) {
		if len(dst) > start {
			dst = append(dst, '&')
		}
		dst = append(append(dst, name...), '=')
	}
	for _, k := range kinds {
		switch k {
		case KindUA:
			field("ua")
			dst = append(dst, s.UserAgent...)
		case KindCookie:
			field("cookie")
			if len(s.Cookies) > 0 {
				dst = append(dst, s.CookieHeader()...)
			} else {
				dst = append(append(dst, "uid="...), s.UserID...)
			}
		case KindIP:
			field("client_ip")
			dst = append(dst, s.IP...)
		case KindUserID:
			field("user_id")
			dst = append(dst, s.UserID...)
			field("client_id")
			dst = append(dst, s.ClientID...)
		case KindDevice:
			field("device_type")
			dst = append(dst, s.DeviceType...)
			field("device_family")
			dst = append(dst, s.DeviceFam...)
		case KindScreen:
			field("screen")
			dst = appendDims(dst, s.ScreenW, s.ScreenH)
		case KindBrowser:
			field("browser_type")
			dst = append(dst, s.BrowserType...)
			field("browser_family")
			dst = append(dst, s.BrowserFam...)
		case KindViewport:
			field("viewport")
			dst = appendDims(dst, s.ViewportW, s.ViewportH)
		case KindScroll:
			field("scroll_pos")
			dst = strconv.AppendInt(dst, int64(rng.Intn(4000)), 10)
		case KindOrientation:
			field("orientation")
			dst = append(dst, s.Orientation...)
		case KindFirstSeen:
			field("first_seen")
			dst = append(dst, s.FirstSeen...)
		case KindResolution:
			field("resolution")
			dst = append(appendDims(dst, s.ScreenW, s.ScreenH), "x24"...)
		case KindLanguage:
			field("lang")
			dst = append(dst, s.Language...)
		case KindDOM:
			domSrc := "<html><head></head><body></body></html>"
			if s.DOMSource != nil {
				domSrc = s.DOMSource()
			}
			field("dom")
			dst = appendBase64(dst, domSrc)
		case KindBinary:
			dst = dst[:start]
			n := 48 + rng.Intn(80)
			dst = append(dst, make([]byte, n)...)
			raw := dst[start:]
			rng.Read(raw)
			// Force invalid UTF-8 so the payload is genuinely
			// undecodable, like the ~1% the authors could not decode.
			raw[0] = 0xFF
			return dst
		}
	}
	return dst
}

// appendDims appends w and h as "<w>x<h>".
func appendDims(dst []byte, w, h int) []byte {
	return strconv.AppendInt(append(strconv.AppendInt(dst, int64(w), 10), 'x'), int64(h), 10)
}

// appendBase64 appends the standard base64 encoding of s, a block of
// whole 3-byte groups at a time so that s is never copied whole.
func appendBase64(dst []byte, s string) []byte {
	var block [48]byte
	for len(s) > 0 {
		n := copy(block[:], s)
		dst = base64.StdEncoding.AppendEncode(dst, block[:n])
		s = s[n:]
	}
	return dst
}

// Response kinds for server-pushed content.
const (
	RespHTML   = "html"
	RespJSON   = "json"
	RespJS     = "js"
	RespImage  = "image"
	RespBinary = "binary"
	RespAdURLs = "adurls"
)

// AdCreative is one clickbait ad served over a WebSocket, reproducing the
// Lockerdome finding (Figure 4): URLs to images hosted on an unlisted CDN
// plus caption and dimensions.
type AdCreative struct {
	ImageURL string `json:"img"`
	Caption  string `json:"caption"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	ClickURL string `json:"click"`
}

// clickbaitCaptions mirror the flavor of the ads in Figure 4.
var clickbaitCaptions = []string{
	"Odd Trick To Fix Sagging Skin",
	"Study Reveals What Just A Single Diet Soda Does To You",
	"Win an iPad Air 2 from Addicting Games!",
	"Doctors Stunned: Local Mom Discovers Anti-Aging Secret",
	"You Won't Believe What These Child Stars Look Like Now",
	"One Weird Tip to Cut Your Electric Bill by 90%",
}

// AdCreatives generates n ad records hosted on cdnHost.
func AdCreatives(n int, cdnHost string, rng *rand.Rand) []AdCreative {
	sizes := [][2]int{{300, 250}, {728, 90}, {160, 600}, {320, 50}}
	out := make([]AdCreative, n)
	for i := range out {
		sz := sizes[rng.Intn(len(sizes))]
		out[i] = AdCreative{
			ImageURL: fmt.Sprintf("http://%s/img/ad%04d.jpg", cdnHost, rng.Intn(10000)),
			Caption:  clickbaitCaptions[rng.Intn(len(clickbaitCaptions))],
			Width:    sz[0],
			Height:   sz[1],
			ClickURL: fmt.Sprintf("http://%s/click?cid=%d", cdnHost, rng.Intn(1_000_000)),
		}
	}
	return out
}

// gifHeader is a minimal valid 1x1 GIF.
var gifHeader = []byte("GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\xff\xff\xff!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00\x02\x02D\x01\x00;")

// PixelGIF returns a 1x1 tracking-pixel GIF.
func PixelGIF() []byte { return append([]byte(nil), gifHeader...) }

// Respond renders one server-pushed message of the given response kind.
// cdnHost is used for adurls responses.
func Respond(kind, cdnHost string, rng *rand.Rand) []byte {
	switch kind {
	case RespHTML:
		return []byte(fmt.Sprintf(
			`<div class="widget-msg" data-seq="%d"><p>%s</p><span class="ts">2017-04-%02d</span></div>`,
			rng.Intn(1000), htmlSnippets[rng.Intn(len(htmlSnippets))], 1+rng.Intn(28)))
	case RespJSON:
		return []byte(fmt.Sprintf(`{"type":"update","seq":%d,"channel":"c%d","data":{"visitors":%d,"active":%v}}`,
			rng.Intn(100000), rng.Intn(64), rng.Intn(5000), rng.Intn(2) == 0))
	case RespJS:
		return []byte(fmt.Sprintf("(function(){var m=%d;window.__queue=window.__queue||[];window.__queue.push(m);})();", rng.Intn(1000)))
	case RespImage:
		return PixelGIF()
	case RespBinary:
		raw := make([]byte, 32+rng.Intn(64))
		rng.Read(raw)
		raw[0] = 0xFE
		return raw
	case RespAdURLs:
		ads := AdCreatives(1+rng.Intn(3), cdnHost, rng)
		var b strings.Builder
		b.WriteString(`{"ads":[`)
		for i, ad := range ads {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"img":"%s","caption":"%s","width":%d,"height":%d,"click":"%s"}`,
				ad.ImageURL, ad.Caption, ad.Width, ad.Height, ad.ClickURL)
		}
		b.WriteString(`]}`)
		return []byte(b.String())
	}
	return nil
}

var htmlSnippets = []string{
	"Hi there! How can we help you today?",
	"An agent will be with you shortly.",
	"3 new comments on this thread",
	"Breaking: market update available",
	"Your session is being recorded for quality purposes",
}
