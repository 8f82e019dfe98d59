package urlutil

import (
	"errors"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	tests := []struct {
		raw                             string
		scheme, host, port, path, query string
	}{
		{"http://example.com", "http", "example.com", "", "/", ""},
		{"https://Example.COM:8443/a/b?x=1", "https", "example.com", "8443", "/a/b", "x=1"},
		{"ws://adnet.com/data.ws", "ws", "adnet.com", "", "/data.ws", ""},
		{"wss://x.doubleclick.net:443/sock", "wss", "x.doubleclick.net", "443", "/sock", ""},
		{"http://127.0.0.1:9000/", "http", "127.0.0.1", "9000", "/", ""},
	}
	for _, tc := range tests {
		u, err := Parse(tc.raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.raw, err)
		}
		if u.Scheme != tc.scheme || u.Host != tc.host || u.Port != tc.port || u.Path != tc.path || u.Query != tc.query {
			t.Errorf("Parse(%q) = %+v, want scheme=%q host=%q port=%q path=%q query=%q",
				tc.raw, u, tc.scheme, tc.host, tc.port, tc.path, tc.query)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, raw := range []string{"", "/relative/path", "example.com/no-scheme", "http://", "mailto:user@example.com"} {
		if _, err := Parse(raw); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", raw)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, raw := range []string{
		"http://example.com/",
		"ws://adnet.com/data.ws?sid=7",
		"https://pub.org:8443/a/b",
	} {
		u := parseURL(t, raw)
		if got := u.String(); got != raw {
			t.Errorf("String() = %q, want %q", got, raw)
		}
	}
}

func TestIsWebSocketAndSecure(t *testing.T) {
	tests := []struct {
		raw string
		ws  bool
	}{
		{"http://a.com/", false},
		{"https://a.com/", false},
		{"ws://a.com/", true},
		{"wss://a.com/", true},
	}
	for _, tc := range tests {
		u := parseURL(t, tc.raw)
		if u.IsWebSocket() != tc.ws {
			t.Errorf("%q IsWebSocket = %v, want %v", tc.raw, u.IsWebSocket(), tc.ws)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	tests := []struct{ host, want string }{
		{"x.doubleclick.net", "doubleclick.net"},
		{"y.doubleclick.net", "doubleclick.net"},
		{"doubleclick.net", "doubleclick.net"},
		{"dkpklk99llpj0.cloudfront.net", "cloudfront.net"},
		{"a.b.c.example.com", "example.com"},
		{"news.bbc.co.uk", "bbc.co.uk"},
		{"bbc.co.uk", "bbc.co.uk"},
		{"co.uk", "co.uk"},
		{"localhost", "localhost"},
		{"127.0.0.1", "127.0.0.1"},
		{"Example.COM.", "example.com"},
		{"shop.something.com.au", "something.com.au"},
	}
	for _, tc := range tests {
		if got := RegistrableDomain(tc.host); got != tc.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", tc.host, got, tc.want)
		}
	}
}

func TestParty(t *testing.T) {
	if !SameParty("www.pub.com", "static.pub.com") {
		t.Error("www.pub.com and static.pub.com should be same party")
	}
	if SameParty("pub.com", "tracker.com") {
		t.Error("pub.com and tracker.com should not be same party")
	}
	if !IsThirdParty("pub.com", "x.doubleclick.net") {
		t.Error("doubleclick should be third-party to pub.com")
	}
	if IsThirdParty("pub.com", "cdn.pub.com") {
		t.Error("cdn.pub.com should be first-party to pub.com")
	}
}

func TestSubdomain(t *testing.T) {
	tests := []struct {
		host, domain string
		want         bool
	}{
		{"a.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"badexample.com", "example.com", false},
		{"a.b.example.com", "example.com", true},
		{"example.com", "a.example.com", false},
		{"A.Example.COM", "example.com", true},
	}
	for _, tc := range tests {
		if got := Subdomain(tc.host, tc.domain); got != tc.want {
			t.Errorf("Subdomain(%q, %q) = %v, want %v", tc.host, tc.domain, got, tc.want)
		}
	}
}

func TestHostPortDefaults(t *testing.T) {
	tests := []struct{ raw, want string }{
		{"http://a.com/x", "a.com:80"},
		{"https://a.com/x", "a.com:443"},
		{"ws://a.com/x", "a.com:80"},
		{"wss://a.com/x", "a.com:443"},
		{"http://a.com:9999/x", "a.com:9999"},
	}
	for _, tc := range tests {
		if got := parseURL(t, tc.raw).HostPort(); got != tc.want {
			t.Errorf("HostPort(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

func TestOrigin(t *testing.T) {
	if got := parseURL(t, "https://a.com:8443/p?q=1").Origin(); got != "https://a.com:8443" {
		t.Errorf("Origin = %q", got)
	}
	if got := parseURL(t, "ws://a.com/p").Origin(); got != "ws://a.com" {
		t.Errorf("Origin = %q", got)
	}
}

// TestRegistrableDomainProperties checks structural invariants of
// registrable-domain extraction over generated host names.
func TestRegistrableDomainProperties(t *testing.T) {
	// The registrable domain is always a suffix of the host, is
	// idempotent, and every subdomain of a host maps to the same
	// registrable domain.
	labels := []string{"a", "bb", "ccc", "track", "cdn", "www", "x9"}
	suffixes := []string{"com", "net", "org", "io", "co.uk", "com.au"}
	f := func(i, j, k uint8, deep bool) bool {
		host := labels[int(i)%len(labels)] + "." + labels[int(j)%len(labels)] + "." + suffixes[int(k)%len(suffixes)]
		if deep {
			host = "extra." + host
		}
		rd := RegistrableDomain(host)
		if !strings.HasSuffix(host, rd) {
			return false
		}
		if RegistrableDomain(rd) != rd {
			return false // idempotence
		}
		return RegistrableDomain("sub."+host) == rd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// parseStd is the net/url reference path of Parse, with the fast path
// disabled. It must stay in sync with the fallback branch in Parse.
func parseStd(raw string) (*URL, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "" || u.Hostname() == "" {
		return nil, errInvalid
	}
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	return &URL{
		Raw:    raw,
		Scheme: strings.ToLower(u.Scheme),
		Host:   strings.ToLower(u.Hostname()),
		Port:   u.Port(),
		Path:   p,
		Query:  u.RawQuery,
	}, nil
}

var errInvalid = errors.New("invalid")

// TestParseFastMatchesStd proves the fast path is a strict subset of the
// net/url path: every URL parseFast accepts must produce the exact URL
// value the standard-library fallback would.
func TestParseFastMatchesStd(t *testing.T) {
	cases := []string{
		"http://example.com",
		"http://example.com/",
		"http://example.com/a/b/c.js",
		"https://sub.tracker-cdn.net:8443/w.js?pub=news.com&pg=3",
		"ws://adnet.com/data.ws?sid=7&u=42",
		"wss://x.doubleclick.net:443/sock",
		"http://127.0.0.1:9000/img/1.gif",
		"http://a.co/p?q=hello world&x=a+b",
		"http://a.co/p?dom=PGh0bWw-PC9odG1sPg==",
		"http://a.co/~user/file.txt;v=1",
		"http://a.co/p!(x)'y'*z",
		// Inputs the fast path must reject but std must normalize or error:
		"http://Example.COM/Upper",
		"http://a.co/p%20q",
		"http://a.co/p#frag",
		"http://user@a.co/",
		"http://a.co:abc/",
		"http://a.co/p?q=%zz#x",
	}
	for _, raw := range cases {
		fast, fastOK := fastOnly(raw)
		std, stdErr := parseStd(raw)
		if !fastOK {
			// Fallback handles it; just confirm Parse agrees with std.
			got, err := Parse(raw)
			if (err == nil) != (stdErr == nil) {
				t.Errorf("Parse(%q) err=%v, std err=%v", raw, err, stdErr)
			} else if err == nil && !sameURL(got, std) {
				t.Errorf("Parse(%q) = %+v, std = %+v", raw, got, std)
			}
			continue
		}
		if stdErr != nil {
			t.Errorf("parseFast(%q) accepted but std errors: %v", raw, stdErr)
			continue
		}
		if !sameURL(fast, std) {
			t.Errorf("parseFast(%q) = %+v, std = %+v", raw, fast, std)
		}
	}
}

// TestParseFastMatchesStdQuick drives the same equivalence over
// generated world-shaped URLs.
func TestParseFastMatchesStdQuick(t *testing.T) {
	hosts := []string{"example.com", "t7.websock-tracker.net", "127.0.0.1"}
	paths := []string{"", "/", "/w.js", "/page/3", "/img/pixel.gif", "/a/b;v=1"}
	queries := []string{"", "?pub=news.com&pg=2", "?dom=AAb-_=", "?q=a b", "?id=7&&x"}
	ports := []string{"", ":80", ":8443"}
	f := func(h, p, q, pt uint8) bool {
		raw := "http://" + hosts[int(h)%len(hosts)] + ports[int(pt)%len(ports)] +
			paths[int(p)%len(paths)] + queries[int(q)%len(queries)]
		fast, ok := fastOnly(raw)
		if !ok {
			return true
		}
		std, err := parseStd(raw)
		return err == nil && sameURL(fast, std)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sameURL compares the exported fields of two URLs; the unexported
// String memo legitimately differs between the fast and std paths.
func sameURL(a, b *URL) bool {
	return a.Raw == b.Raw && a.Scheme == b.Scheme && a.Host == b.Host &&
		a.Port == b.Port && a.Path == b.Path && a.Query == b.Query &&
		a.String() == b.String()
}

// FuzzParseMatchesNetURL holds the fast path to the net/url path on
// arbitrary strings: whatever parseFast accepts, parseStd accepts too,
// with equal URL fields and equal String(); and Parse fails exactly
// when parseStd does.
func FuzzParseMatchesNetURL(f *testing.F) {
	for _, seed := range []string{
		"http://example.com", "http://example.com/", "https://sub.tracker-cdn.net:8443/w.js?pub=news.com&pg=3",
		"ws://adnet.com/data.ws?sid=7&u=42", "wss://x.doubleclick.net:443/sock", "http://127.0.0.1:9000/img/1.gif",
		"http://a.co/p?q=hello world&x=a+b", "http://a.co?x", "http://a.co:0080//x", "http://a.co/~u;v=1!(x)'*",
		"http://Example.COM/Upper", "http://a.co/p%20q", "http://a.co/p#frag", "http://user@a.co/",
		"http://a.co:abc/", "http://[::1]:80/", "http://a.co/\x7f", "mailto:x@a.co", "/relative", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		std, stdErr := parseStd(raw)
		if fast, ok := fastOnly(raw); ok {
			if stdErr != nil {
				t.Fatalf("parseFast(%q) accepted, net/url refuses: %v", raw, stdErr)
			}
			if !sameURL(fast, std) {
				t.Fatalf("parseFast(%q) = %+v (%s), net/url = %+v (%s)", raw, fast, fast, std, std)
			}
		}
		got, err := Parse(raw)
		if (err == nil) != (stdErr == nil) {
			t.Fatalf("Parse(%q) err = %v, net/url err = %v", raw, err, stdErr)
		}
		if err == nil && !sameURL(got, std) {
			t.Fatalf("Parse(%q) = %+v, net/url = %+v", raw, got, std)
		}
	})
}

// fastOnly runs parseFast alone, into a URL of its own.
func fastOnly(raw string) (*URL, bool) {
	u := new(URL)
	return u, parseFast(u, raw)
}

// TestParseIntoOverwrites: ParseInto leaves nothing of the URL it
// overwrites — the memoized String() included — and leaves the
// destination alone when the input does not parse.
func TestParseIntoOverwrites(t *testing.T) {
	var u URL
	if err := ParseInto(&u, "http://a.example/x/y?q=1"); err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"wss://b.example:8443", "http://C.example/%7Ez", "http://a.example/x/y?q=1"} {
		if err := ParseInto(&u, raw); err != nil {
			t.Fatal(err)
		}
		want, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if u != *want || u.String() != want.String() {
			t.Errorf("ParseInto(%q) over an earlier URL = %+v, Parse = %+v", raw, u, *want)
		}
	}
	before := u
	if err := ParseInto(&u, "/relative"); err == nil {
		t.Fatal("ParseInto accepted a relative reference")
	}
	if u != before {
		t.Errorf("a failed ParseInto changed its destination: %+v, was %+v", u, before)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ParseInto(&u, "http://a.example/x/y?q=1") }); n != 0 {
		t.Errorf("ParseInto of a fast-path URL allocated %.1f times, want 0", n)
	}
}

// parseURL is Parse for a test's URL literals: a malformed one
// fails the test.
func parseURL(tb testing.TB, raw string) *URL {
	tb.Helper()
	u, err := Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
