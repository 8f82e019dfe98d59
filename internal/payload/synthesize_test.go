package payload

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// joinSynthesize is the message as it was once built, fields gathered
// and joined by strings.Join: the oracle for the appending form.
func joinSynthesize(kinds []string, s *ClientState, rng *rand.Rand) []byte {
	var fields []string
	for _, k := range kinds {
		switch k {
		case KindUA:
			fields = append(fields, "ua="+s.UserAgent)
		case KindCookie:
			ck := s.CookieHeader()
			if ck == "" {
				ck = "uid=" + s.UserID
			}
			fields = append(fields, "cookie="+ck)
		case KindIP:
			fields = append(fields, "client_ip="+s.IP)
		case KindUserID:
			fields = append(fields, "user_id="+s.UserID, "client_id="+s.ClientID)
		case KindDevice:
			fields = append(fields, "device_type="+s.DeviceType, "device_family="+s.DeviceFam)
		case KindScreen:
			fields = append(fields, fmt.Sprintf("screen=%dx%d", s.ScreenW, s.ScreenH))
		case KindBrowser:
			fields = append(fields, "browser_type="+s.BrowserType, "browser_family="+s.BrowserFam)
		case KindViewport:
			fields = append(fields, fmt.Sprintf("viewport=%dx%d", s.ViewportW, s.ViewportH))
		case KindScroll:
			fields = append(fields, fmt.Sprintf("scroll_pos=%d", rng.Intn(4000)))
		case KindOrientation:
			fields = append(fields, "orientation="+s.Orientation)
		case KindFirstSeen:
			fields = append(fields, "first_seen="+s.FirstSeen)
		case KindResolution:
			fields = append(fields, fmt.Sprintf("resolution=%dx%dx24", s.ScreenW, s.ScreenH))
		case KindLanguage:
			fields = append(fields, "lang="+s.Language)
		case KindDOM:
			domSrc := "<html><head></head><body></body></html>"
			if s.DOMSource != nil {
				domSrc = s.DOMSource()
			}
			fields = append(fields, "dom="+base64.StdEncoding.EncodeToString([]byte(domSrc)))
		case KindBinary:
			raw := make([]byte, 48+rng.Intn(80))
			rng.Read(raw)
			raw[0] = 0xFF
			return raw
		}
	}
	return []byte(strings.Join(fields, "&"))
}

// synthKinds are the kinds a fuzz input picks from, an unknown one
// included.
var synthKinds = []string{
	KindUA, KindCookie, KindIP, KindUserID, KindDevice, KindScreen, KindBrowser, KindViewport,
	KindScroll, KindOrientation, KindFirstSeen, KindResolution, KindLanguage, KindDOM, KindBinary, "unknown",
}

// FuzzAppendSynthesizeMatchesJoin: for any kind list, client, DOM and
// prefix, AppendSynthesize appends the oracle's bytes after the prefix,
// or after nothing, and leaves its generator where the oracle leaves its
// own.
func FuzzAppendSynthesizeMatchesJoin(f *testing.F) {
	f.Add([]byte{0, 1, 2}, int64(1), "", "", false)
	f.Add([]byte{8, 8, 14, 0}, int64(7), "prefix&", "<html><body>é &amp; ü</body></html>", true)
	f.Add([]byte{13, 3, 15, 11, 5}, int64(-3), "x", strings.Repeat("<p>dom</p>", 40), true)
	f.Add([]byte{}, int64(0), "p", "", false)
	f.Fuzz(func(t *testing.T, picks []byte, seed int64, prefix, dom string, cookies bool) {
		kinds := make([]string, len(picks))
		for i, p := range picks {
			kinds[i] = synthKinds[int(p)%len(synthKinds)]
		}
		s := NewClientState(rand.New(rand.NewSource(seed)))
		if cookies {
			s.Cookies["b"], s.Cookies["a"] = "2", "1"
		}
		if dom != "" {
			s.DOMSource = func() string { return dom }
		}
		want := joinSynthesize(kinds, s, rand.New(rand.NewSource(seed^1)))

		rng := rand.New(rand.NewSource(seed ^ 1))
		got := AppendSynthesize([]byte(prefix), kinds, s, rng)
		if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendSynthesize(%q, %q) = %q, oracle appends %q", prefix, kinds, got, want)
		}
		oracleRng := rand.New(rand.NewSource(seed ^ 1))
		joinSynthesize(kinds, s, oracleRng)
		if rng.Int63() != oracleRng.Int63() {
			t.Fatalf("AppendSynthesize(%q) left its generator elsewhere than the oracle", kinds)
		}
		if got := AppendSynthesize(nil, kinds, s, rand.New(rand.NewSource(seed^1))); !bytes.Equal(got, want) {
			t.Fatalf("AppendSynthesize(nil, %q) = %q, oracle %q", kinds, got, want)
		}
	})
}
