package content

import (
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/payload"
)

// The regular expressions below are the specification of the detection
// library — the way the paper's authors wrote theirs — and the
// *Regexp functions are the detectors exactly as they ran before the
// hand scanners replaced them. Nothing outside tests uses them.
var (
	reUserAgent = regexp.MustCompile(`Mozilla/\d\.\d \([^)]*\)|(^|[&?;])ua=`)
	reCookie    = regexp.MustCompile(`(^|[&?;])cookie=|(^|;\s*)[A-Za-z_][\w.]*=[\w%.:-]+;\s*[A-Za-z_]`)
	reIP        = regexp.MustCompile(`(^|[&?;])(client_ip|ip|ip_addr|remote_addr)=\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}`)
	reUserID    = regexp.MustCompile(`(^|[&?;])(user_id|client_id|account_id|uid|visitor_id)=[\w.-]+`)
	reDevice    = regexp.MustCompile(`(^|[&?;])(device_type|device_family|device)=[\w-]+`)
	reScreen    = regexp.MustCompile(`(^|[&?;])screen=\d+x\d+`)
	reBrowser   = regexp.MustCompile(`(^|[&?;])(browser_type|browser_family|browser)=[\w-]+`)
	reViewport  = regexp.MustCompile(`(^|[&?;])viewport=\d+x\d+`)
	reScroll    = regexp.MustCompile(`(^|[&?;])(scroll_pos|scroll_y|scroll)=\d+`)
	reOrient    = regexp.MustCompile(`(^|[&?;])orientation=(landscape|portrait)[\w-]*`)
	reFirstSeen = regexp.MustCompile(`(^|[&?;])(first_seen|firstseen|created_at)=\d{4}-\d{2}-\d{2}`)
	reResol     = regexp.MustCompile(`(^|[&?;])resolution=\d+x\d+(x\d+)?`)
	reLanguage  = regexp.MustCompile(`(^|[&?;])(lang|language|locale)=[a-z]{2}(-[A-Z]{2})?`)
	reDOMField  = regexp.MustCompile(`(^|[&?;])dom=([A-Za-z0-9+/=]+)`)
	reJS        = regexp.MustCompile(`(?s)^\s*(\(function\s*\(|function\s+\w+\s*\(|var\s+\w+\s*=|!function|window\.|"use strict")`)
	reAdURL     = regexp.MustCompile(`"img"\s*:\s*"(https?://[^"]+)"\s*,\s*"caption"\s*:\s*"([^"]*)"\s*,\s*"width"\s*:\s*(\d+)\s*,\s*"height"\s*:\s*(\d+)`)
)

func appendSentRegexp(dst []string, data []byte) []string {
	if len(data) == 0 {
		return dst
	}
	if !utf8.Valid(data) {
		return append(dst, SentBinary)
	}
	s := string(data)
	items := dst
	add := func(item string, re *regexp.Regexp) {
		if re.MatchString(s) {
			items = append(items, item)
		}
	}
	add(SentUserAgent, reUserAgent)
	add(SentCookie, reCookie)
	add(SentIP, reIP)
	add(SentUserID, reUserID)
	add(SentDevice, reDevice)
	add(SentScreen, reScreen)
	add(SentBrowser, reBrowser)
	add(SentViewport, reViewport)
	add(SentScroll, reScroll)
	add(SentOrientation, reOrient)
	add(SentFirstSeen, reFirstSeen)
	add(SentResolution, reResol)
	add(SentLanguage, reLanguage)
	if m := reDOMField.FindStringSubmatch(s); m != nil {
		if decoded, err := base64.StdEncoding.DecodeString(m[2]); err == nil && looksLikeHTMLToLower(decoded) {
			items = append(items, SentDOM)
		}
	} else if looksLikeFullDocumentToLower(s) {
		items = append(items, SentDOM)
	}
	return items
}

func looksLikeHTMLToLower(b []byte) bool {
	s := strings.ToLower(strings.TrimSpace(string(b)))
	return strings.HasPrefix(s, "<!doctype html") || strings.HasPrefix(s, "<html") ||
		(strings.HasPrefix(s, "<") && strings.Contains(s, "</"))
}

func looksLikeFullDocumentToLower(s string) bool {
	ls := strings.ToLower(s)
	return strings.Contains(ls, "<html") && strings.Contains(ls, "<body")
}

func classifyReceivedRegexp(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	if IsImage(data) {
		return RecvImage
	}
	if !utf8.Valid(data) {
		return RecvBinary
	}
	trimmed := []byte(strings.TrimSpace(string(data)))
	if len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') && json.Valid(trimmed) {
		return RecvJSON
	}
	if looksLikeHTMLToLower(trimmed) {
		return RecvHTML
	}
	if reJS.Match(trimmed) {
		return RecvJavaScript
	}
	return ""
}

func extractAdRefsRegexp(data []byte) []AdRef {
	if !utf8.Valid(data) {
		return nil
	}
	var out []AdRef
	for _, m := range reAdURL.FindAllStringSubmatch(string(data), -1) {
		out = append(out, AdRef{
			ImageURL: m[1],
			Caption:  m[2],
			Width:    atoiSafe([]byte(m[3])),
			Height:   atoiSafe([]byte(m[4])),
		})
	}
	return out
}

// checkAgainstOracles holds all three scanners to their regexp
// originals on one payload: same items, same order.
func checkAgainstOracles(t *testing.T, data []byte) {
	t.Helper()
	prefix := []string{"kept"}
	if got, want := AppendSent(prefix[:1:1], data), appendSentRegexp(prefix[:1:1], data); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendSent(%q) = %v, regexps give %v", data, got, want)
	}
	if got, want := ClassifyReceived(data), classifyReceivedRegexp(data); got != want {
		t.Errorf("ClassifyReceived(%q) = %q, regexps give %q", data, got, want)
	}
	if got, want := ExtractAdRefs(data), extractAdRefsRegexp(data); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractAdRefs(%q) = %+v, regexp gives %+v", data, got, want)
	}
}

// oracleCorpus is hand-picked around every branch and boundary of the
// patterns: field separators, key vocabularies and near-misses, value
// shapes one byte short and one byte long, and the non-ASCII letters
// whose lower case is ASCII (U+212A Kelvin sign, U+0130) or longer
// than they are (U+023A).
var oracleCorpus = []string{
	"", " ", "&", "?;&", "=", "ua", "ua=", "xua=", "&ua=", "a?ua=1", "UA=", " ua=",
	"Mozilla/5.0 (X11)", "Mozilla/5.0 (X11", "Mozilla/50.0 (X)", "Mozilla/5.0(X)", "Mozilla/5.0 ()",
	"Mozilla/4.0 x Mozilla/5.0 (a\nb) y", "Mozilla/Mozilla/5.0 (é)", "Mozilla/5.0 (", ")Mozilla/5.0 (",
	"cookie=", "xcookie=1", ";cookie=", "a=1;b", "a=1; b", "a=1;\t\n_", "a=1;\vb", "a=1;1", "a=;b", "a=1;",
	"a.b_c=x%3A.:-;z", "1a=1;b", ".a=1;b", "x a=1;b", "x;a=1;b", "x; \r\fa=1;b", "x;a=1 ;b", "a=1;;b", "a==1;b",
	"sid=9;uid=44;t=17", "é=1;b", "a=é;b", "a=1;é",
	"ip=1.2.3.4", "ip=1.2.3", "ip=1.2.3.", "ip=1234.2.3.4", "ip=1.2.3.4567", "ip=1.2.3.4.5", "ip=.1.2.3", "ip=1..2.3",
	"client_ip=10.0.0.1", "ip_addr=255.255.255.255", "remote_addr=0.0.0.0", "xip=1.2.3.4", "x&ip=1.2.3.4", "addr=1.2.3.4",
	"ip=001.002.003.004", "ip=1.2.3.x",
	"uid=a", "uid=", "uid=.", "uid=-", "uid=!", "user_id=u-99", "client_id=_", "account_id=é", "visitor_id=0", "id=1", "guid=1",
	"device=x", "device_type=-", "device_family=", "devices=x", "device_=x", "device_typ=x",
	"screen=1x1", "screen=1920x1080", "screen=x1", "screen=1x", "screen=1X1", "screen=12", "screen=1x1x1",
	"browser=chrome", "browser_type=", "browser_family=-x", "browsers=1",
	"viewport=800x600", "viewport=800", "viewport=800xx600",
	"scroll=1", "scroll_pos=0", "scroll_y=9", "scroll_x=9", "scroll=", "scroll=-1",
	"orientation=landscape", "orientation=portrait-primary", "orientation=landscap", "orientation=Portrait", "orientation=",
	"first_seen=2017-04-19", "firstseen=2017-04-1", "created_at=2017-04-199", "first_seen=20170-4-19", "first_seen=2017/04/19",
	"first_seen=2017-04-19T00:00", "first=2017-04-19",
	"resolution=1x1", "resolution=1x1x24", "resolution=1x1x", "resolution=x",
	"lang=en", "lang=en-US", "language=e", "locale=EN", "lang=e1", "lang=enx", "langs=en", "lang=é",
	"dom=", "dom=!", "dom=aGVsbG8gd29ybGQ=", "dom=PGh0bWw+PC9odG1sPg==", "dom=PGh0bWw+PC9odG1sPg", "dom=PGI+eDwvYj4=",
	"dom=!&dom=PGh0bWw+PC9odG1sPg==", "dom=aGk=&dom=PGh0bWw+PC9odG1sPg==", "dom=PEhUTUw+", "dom=ICA8IURPQ1RZUEUgSFRNTD4=",
	"dom=/w==", "dom=PP8vPC8=", "x=1&dom=PGh0bWw+<html><body>", "dom=!<html><body>", "xdom=1<HTML><BODY>",
	"<html><body></body></html>", "<HTML>\n<BoDy>", "<html>", "<body><html", "<htm<html<bod<body", "<\u212ahtml><body>", "<htm\u212a<html><body>", "coo\u212aie=1;b",
	"<\u023ahtml><body>", "\u023a\u023a<html>\u023a<body>", "<ht\u0130ml><body>", "\u023a<p></p>", "\u0130var x=1",
	"ua=1&cookie=2&ip=1.1.1.1&uid=3&device=4&screen=5x5&browser=6&viewport=7x7&scroll=8&orientation=portrait" +
		"&first_seen=2017-01-01&resolution=9x9&lang=en&dom=PGh0bWw+PC9odG1sPg==",
	"\xff", "ua=\xff", "GIF89a", "\x89PNG", "\xff\xd8\xff",
	"{}", "[1]", " {\"a\":1} ", "{bad", "[", " {} ",
	"<!DOCTYPE html>", "<!doctype HTML>", "<!doctypehtml>", "<p>", "<p></p>", "<", "</", "<</", " \n<b></b>\t", "x<p></p>",
	" <p></p>", " var x=1",
	"(function(", "(function \n(", "(function", "(functionx(", "function f(", "function  f_1 \t(", "function(", "function f", "functionf(",
	"function é(", "var x=", "var x =", "var\tx\n=", "varx=", "var =", "var x", "var x-y=", "!function", "!functio", "window.", "window",
	`"use strict"`, `"use strict`, "\vvar x=", " \t\r\n\fvar x=1", "\v", " var x=",
	`"img":"http://a/b","caption":"c","width":1,"height":2`,
	`"img" : "https://a" , "caption" : "" , "width" : 10 , "height" : 20x`,
	`"img":"http://","caption":"c","width":1,"height":2`,
	`"img":"https://","caption":"c","width":1,"height":2`,
	`"img":"httpss://a","caption":"c","width":1,"height":2`,
	`"img":"ftp://a","caption":"c","width":1,"height":2`,
	`"img":"http://a","caption":"c","width":,"height":2`,
	`"img":"http://a","caption":"c","width":1,"height":`,
	`"img":"http://a","caption":"c","width":1 "height":2`,
	`"img":"http://a","caption":"c","height":2,"width":1`,
	`"img":"http://a","caption":"c`,
	`"img":"http://a`,
	`"img""img":"http://a","caption":"é","width":007,"height":99999999999999999999`,
	`[{"img":"http://a/1","caption":"x","width":1,"height":2},{"img":"http://a/2","caption":"y","width":3,"height":4}]`,
	`"img":"http://a","caption":"c","width":1,"height":2"img":"http://b","caption":"d","width":3,"height":4`,
	`"img":"x","img":"http://a","caption":"c","width":1,"height":2`,
	"\"img\":\"http://a\nb\",\"caption\":\"c\nd\",\"width\":1\n,\f\"height\":2",
	"\"img\":\"http://a\",\"caption\":\"c\",\"width\":1,\v\"height\":2",
}

func TestScannersMatchRegexps(t *testing.T) {
	for _, s := range oracleCorpus {
		checkAgainstOracles(t, []byte(s))
	}
	// Everything the payload generator can emit, alone and in bundles,
	// and every response shape.
	rng := rand.New(rand.NewSource(14))
	state := payload.NewClientState(rng)
	state.Cookies["uid"] = "abc123"
	state.DOMSource = func() string { return "<html><head></head><body><p>x</p></body></html>" }
	kinds := []string{
		payload.KindUA, payload.KindCookie, payload.KindIP, payload.KindUserID, payload.KindDevice,
		payload.KindScreen, payload.KindBrowser, payload.KindViewport, payload.KindScroll,
		payload.KindOrientation, payload.KindFirstSeen, payload.KindResolution, payload.KindLanguage,
		payload.KindDOM, payload.KindBinary,
	}
	for _, k := range kinds {
		checkAgainstOracles(t, payload.Synthesize([]string{k}, state, rng))
	}
	for round := 0; round < 200; round++ {
		var pick []string
		for _, k := range kinds {
			if rng.Intn(4) == 0 {
				pick = append(pick, k)
			}
		}
		checkAgainstOracles(t, payload.Synthesize(pick, state, rng))
	}
	for _, kind := range []string{payload.RespHTML, payload.RespJSON, payload.RespJS, payload.RespImage, payload.RespBinary, payload.RespAdURLs} {
		for i := 0; i < 20; i++ {
			checkAgainstOracles(t, payload.Respond(kind, "cdn1.lockerdome.example", rng))
		}
	}
	// Random splices of corpus entries reach interactions no single
	// entry has (a separator from one, a key from the next).
	const glue = "&?; \n="
	for round := 0; round < 3000; round++ {
		var b []byte
		for n := 1 + rng.Intn(4); n > 0; n-- {
			s := oracleCorpus[rng.Intn(len(oracleCorpus))]
			if len(s) > 0 && rng.Intn(3) == 0 {
				s = s[:rng.Intn(len(s)+1)]
			}
			b = append(b, s...)
			if rng.Intn(2) == 0 {
				b = append(b, glue[rng.Intn(len(glue))])
			}
		}
		checkAgainstOracles(t, b)
	}
}

func addOracleCorpus(f *testing.F) {
	for _, s := range oracleCorpus {
		f.Add([]byte(s))
	}
}

func FuzzAppendSentMatchesRegexp(f *testing.F) {
	addOracleCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := AppendSent(nil, data), appendSentRegexp(nil, data); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendSent(%q) = %v, regexps give %v", data, got, want)
		}
	})
}

func FuzzClassifyReceivedMatchesRegexp(f *testing.F) {
	addOracleCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := ClassifyReceived(data), classifyReceivedRegexp(data); got != want {
			t.Errorf("ClassifyReceived(%q) = %q, regexps give %q", data, got, want)
		}
	})
}

func FuzzExtractAdRefsMatchesRegexp(f *testing.F) {
	addOracleCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := ExtractAdRefs(data), extractAdRefsRegexp(data); !reflect.DeepEqual(got, want) {
			t.Errorf("ExtractAdRefs(%q) = %+v, regexp gives %+v", data, got, want)
		}
	})
}
