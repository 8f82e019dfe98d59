package payload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestNewClientStateDeterministic(t *testing.T) {
	a := NewClientState(rand.New(rand.NewSource(9)))
	b := NewClientState(rand.New(rand.NewSource(9)))
	if a.UserAgent != b.UserAgent || a.IP != b.IP || a.UserID != b.UserID || a.FirstSeen != b.FirstSeen {
		t.Error("same seed produced different client states")
	}
	c := NewClientState(rand.New(rand.NewSource(10)))
	if a.UserID == c.UserID {
		t.Error("different seeds produced identical user IDs")
	}
}

func TestClientStatePlausible(t *testing.T) {
	s := NewClientState(rand.New(rand.NewSource(1)))
	if !strings.HasPrefix(s.UserAgent, "Mozilla/5.0") || !strings.Contains(s.UserAgent, "Chrome/") {
		t.Errorf("UA = %q", s.UserAgent)
	}
	if s.ScreenW < s.ViewportW || s.ScreenH < s.ViewportH {
		t.Error("viewport exceeds screen")
	}
	if !strings.HasPrefix(s.FirstSeen, "2017-") {
		t.Errorf("FirstSeen = %q", s.FirstSeen)
	}
}

func TestCookieHeaderDeterministicOrder(t *testing.T) {
	s := NewClientState(rand.New(rand.NewSource(2)))
	s.Cookies["zz"] = "1"
	s.Cookies["aa"] = "2"
	s.Cookies["mm"] = "3"
	want := "aa=2; mm=3; zz=1"
	for i := 0; i < 5; i++ {
		if got := s.CookieHeader(); got != want {
			t.Fatalf("CookieHeader = %q, want %q", got, want)
		}
	}
	var empty ClientState
	if empty.CookieHeader() != "" {
		t.Error("empty jar produced a header")
	}
}

func TestSynthesizeStability(t *testing.T) {
	// Identifier fields must be stable across messages from the same
	// state (tracking IDs persist within a visit).
	s := NewClientState(rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	a := string(AppendSynthesize(nil, []string{KindUserID}, s, rng))
	b := string(AppendSynthesize(nil, []string{KindUserID}, s, rng))
	if a != b {
		t.Errorf("user ids differ across messages: %q vs %q", a, b)
	}
}

func TestSynthesizeBinaryIsInvalidUTF8(t *testing.T) {
	s := NewClientState(rand.New(rand.NewSource(5)))
	f := func(seed int64) bool {
		data := AppendSynthesize(nil, []string{KindBinary}, s, rand.New(rand.NewSource(seed)))
		return !utf8.Valid(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRespondKindsProduceDistinctShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	html := Respond(RespHTML, "cdn.example", rng)
	jsonb := Respond(RespJSON, "cdn.example", rng)
	js := Respond(RespJS, "cdn.example", rng)
	img := Respond(RespImage, "cdn.example", rng)
	if !strings.HasPrefix(string(html), "<div") {
		t.Errorf("html = %q", html)
	}
	if !strings.HasPrefix(string(jsonb), "{") {
		t.Errorf("json = %q", jsonb)
	}
	if !strings.HasPrefix(string(js), "(function") {
		t.Errorf("js = %q", js)
	}
	if string(img[:4]) != "GIF8" {
		t.Errorf("image header = %q", img[:4])
	}
	if Respond("nonsense", "cdn.example", rng) != nil {
		t.Error("unknown kind produced data")
	}
}

func TestAdCreatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ads := AdCreatives(5, "cdn1.lockerdome.com", rng)
	if len(ads) != 5 {
		t.Fatalf("ads = %d", len(ads))
	}
	for _, ad := range ads {
		if !strings.Contains(ad.ImageURL, "cdn1.lockerdome.com") {
			t.Errorf("ad image not on CDN host: %s", ad.ImageURL)
		}
		if ad.Caption == "" || ad.Width == 0 || ad.Height == 0 {
			t.Errorf("incomplete ad: %+v", ad)
		}
	}
}

func TestRespondAdURLsReferenceCDN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := Respond(RespAdURLs, "cdn1.lockerdome.com", rng)
	s := string(data)
	if !strings.Contains(s, `"img":"http://cdn1.lockerdome.com/`) {
		t.Errorf("adurls payload = %s", s)
	}
	if !strings.Contains(s, `"caption"`) || !strings.Contains(s, `"width"`) {
		t.Error("ad metadata missing")
	}
}

func TestPixelGIFIsFreshCopy(t *testing.T) {
	a := PixelGIF()
	b := PixelGIF()
	a[0] = 'X'
	if b[0] != 'G' {
		t.Error("PixelGIF shares backing storage")
	}
}

func TestFingerprintKindsCoverTable5Cluster(t *testing.T) {
	want := map[string]bool{
		KindBrowser: true, KindViewport: true, KindScroll: true,
		KindOrientation: true, KindFirstSeen: true, KindResolution: true,
		KindScreen: true, KindDevice: true,
	}
	if len(FingerprintKinds) != len(want) {
		t.Fatalf("FingerprintKinds = %v", FingerprintKinds)
	}
	for _, k := range FingerprintKinds {
		if !want[k] {
			t.Errorf("unexpected kind %q", k)
		}
	}
}
