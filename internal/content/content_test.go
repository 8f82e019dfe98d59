package content

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/payload"
)

// TestDetectSentFindsSynthesizedKinds is the adversarial pairing test:
// the classifier (this package) must recover every kind the generator
// (internal/payload) embeds, without sharing code.
func TestDetectSentFindsSynthesizedKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	state := payload.NewClientState(rng)
	state.Cookies["uid"] = "abc123"
	state.Cookies["_ga"] = state.ClientID
	state.DOMSource = func() string {
		return "<html><head><title>t</title></head><body><p>secret query</p></body></html>"
	}

	cases := []struct {
		kinds []string
		want  []string
	}{
		{[]string{payload.KindUA}, []string{SentUserAgent}},
		{[]string{payload.KindCookie}, []string{SentCookie}},
		{[]string{payload.KindIP}, []string{SentIP}},
		{[]string{payload.KindUserID}, []string{SentUserID}},
		{[]string{payload.KindDevice}, []string{SentDevice}},
		{[]string{payload.KindScreen}, []string{SentScreen}},
		{[]string{payload.KindBrowser}, []string{SentBrowser}},
		{[]string{payload.KindViewport}, []string{SentViewport}},
		{[]string{payload.KindScroll}, []string{SentScroll}},
		{[]string{payload.KindOrientation}, []string{SentOrientation}},
		{[]string{payload.KindFirstSeen}, []string{SentFirstSeen}},
		{[]string{payload.KindResolution}, []string{SentResolution}},
		{[]string{payload.KindLanguage}, []string{SentLanguage}},
		{[]string{payload.KindDOM}, []string{SentDOM}},
		{[]string{payload.KindBinary}, []string{SentBinary}},
	}
	for _, tc := range cases {
		data := payload.AppendSynthesize(nil, tc.kinds, state, rng)
		got := DetectSent(data)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kinds %v: DetectSent(%q) = %v, want %v", tc.kinds, truncate(data), got, tc.want)
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 60 {
		return string(b[:60]) + "..."
	}
	return string(b)
}

func TestDetectSentFingerprintBundle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	state := payload.NewClientState(rng)
	data := payload.AppendSynthesize(nil, payload.FingerprintKinds, state, rng)
	got := DetectSent(data)
	want := []string{SentDevice, SentScreen, SentBrowser, SentViewport, SentScroll, SentOrientation, SentFirstSeen, SentResolution}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fingerprint bundle: got %v, want %v", got, want)
	}
}

func TestDetectSentOnRealWorldShapes(t *testing.T) {
	cases := []struct {
		data string
		want []string
	}{
		{"ua=Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36&lang=en-US", []string{SentUserAgent, SentLanguage}},
		{"sid=9&t=17&page=home", nil},                           // neutral session fields
		{"sid=9;uid=44;t=17", []string{SentCookie, SentUserID}}, // cookie-shaped with a uid
		{"user_id=u-99&screen=1920x1080", []string{SentUserID, SentScreen}},
		{`{"event":"pageview"}`, nil},
		{"", nil},
	}
	for _, tc := range cases {
		if got := DetectSent([]byte(tc.data)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("DetectSent(%q) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestDetectSentHeaders(t *testing.T) {
	items := AppendSentHeaders(nil, map[string]string{
		"User-Agent":      "Mozilla/5.0 (Windows NT 10.0)",
		"Cookie":          "uid=1; _ga=GA1.2.3.4",
		"Accept-Language": "en-US",
		"Origin":          "http://pub.example",
	})
	got := MergeItems(items)
	want := []string{SentUserAgent, SentCookie, SentLanguage}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("headers: got %v, want %v", got, want)
	}
	if items := AppendSentHeaders(nil, map[string]string{"User-Agent": ""}); len(items) != 0 {
		t.Error("empty UA detected")
	}
}

func TestMergeItemsOrderAndDedup(t *testing.T) {
	merged := MergeItems(
		[]string{SentCookie, SentUserAgent},
		[]string{SentUserAgent, SentDOM},
		[]string{SentScreen},
	)
	want := []string{SentUserAgent, SentCookie, SentScreen, SentDOM}
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("MergeItems = %v, want %v", merged, want)
	}
}

func TestClassifyReceived(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		data []byte
		want string
	}{
		{payload.Respond(payload.RespHTML, "cdn.example", rng), RecvHTML},
		{payload.Respond(payload.RespJSON, "cdn.example", rng), RecvJSON},
		{payload.Respond(payload.RespJS, "cdn.example", rng), RecvJavaScript},
		{payload.Respond(payload.RespImage, "cdn.example", rng), RecvImage},
		{payload.Respond(payload.RespBinary, "cdn.example", rng), RecvBinary},
		{payload.Respond(payload.RespAdURLs, "cdn1.lockerdome.example", rng), RecvJSON},
		{[]byte("<!DOCTYPE html><html><body>x</body></html>"), RecvHTML},
		{[]byte("plain words only"), ""},
		{nil, ""},
	}
	for i, tc := range cases {
		if got := ClassifyReceived(tc.data); got != tc.want {
			t.Errorf("case %d: ClassifyReceived = %q, want %q", i, got, tc.want)
		}
	}
}

func TestIsImage(t *testing.T) {
	if !IsImage(payload.PixelGIF()) {
		t.Error("GIF not detected")
	}
	if !IsImage([]byte("\x89PNG\r\n")) || !IsImage([]byte("\xFF\xD8\xFF\xE0")) {
		t.Error("PNG/JPEG not detected")
	}
	if IsImage([]byte("GIF-like text")) {
		t.Error("false positive")
	}
}

func TestExtractAdRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := payload.Respond(payload.RespAdURLs, "cdn1.lockerdome.example", rng)
	refs := ExtractAdRefs(data)
	if len(refs) == 0 {
		t.Fatalf("no ad refs extracted from %s", data)
	}
	for _, ref := range refs {
		if ref.ImageURL == "" || ref.Caption == "" || ref.Width == 0 || ref.Height == 0 {
			t.Errorf("incomplete ad ref: %+v", ref)
		}
	}
	if refs := ExtractAdRefs([]byte{0xFF, 0x00}); refs != nil {
		t.Error("ad refs from binary data")
	}
}

func TestDOMExfiltrationDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	state := payload.NewClientState(rng)
	state.DOMSource = func() string {
		return "<html><head></head><body><input value=\"typed-but-not-sent\"></body></html>"
	}
	data := payload.AppendSynthesize(nil, []string{payload.KindDOM}, state, rng)
	items := DetectSent(data)
	if !reflect.DeepEqual(items, []string{SentDOM}) {
		t.Fatalf("DOM not detected: %v", items)
	}
	// A payload with an unrelated base64 field must not read as DOM.
	notDOM := []byte("dom=aGVsbG8gd29ybGQ=") // "hello world"
	if items := DetectSent(notDOM); len(items) != 0 {
		t.Errorf("non-HTML base64 classified as %v", items)
	}
}

func TestBinaryPayloadOnlyBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	state := payload.NewClientState(rng)
	data := payload.AppendSynthesize(nil, []string{payload.KindBinary}, state, rng)
	if got := DetectSent(data); !reflect.DeepEqual(got, []string{SentBinary}) {
		t.Errorf("binary payload: %v", got)
	}
}
