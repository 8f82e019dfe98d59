package browser

import (
	"reflect"
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/urlutil"
)

// TestResolveRefURLInQuery: "://" inside a query (a redirector link)
// does not make a reference absolute; only a scheme prefix does.
func TestResolveRefURLInQuery(t *testing.T) {
	base := urlutil.MustParse("http://pub.example/dir/page.html")
	tests := []struct{ href, want string }{
		{"/out?to=http://x.example/", "http://pub.example/out?to=http://x.example/"},
		{"out?to=http://x.example/", "http://pub.example/dir/out?to=http://x.example/"},
		{"?to=http://x.example/", "http://pub.example/dir/?to=http://x.example/"},
		{"//cdn.example/r?u=https://x.example/", "http://cdn.example/r?u=https://x.example/"},
		{"a/b://c", "http://pub.example/dir/a/b://c"},
		{"HTTPS://Other.example/x", "https://other.example/x"},
		{"ws+v1.x-y://sock.example/s", "ws+v1.x-y://sock.example/s"},
	}
	for _, tc := range tests {
		u, err := resolveRef(base, tc.href)
		if err != nil {
			t.Errorf("resolveRef(%q): %v", tc.href, err)
			continue
		}
		if u.String() != tc.want {
			t.Errorf("resolveRef(%q) = %q, want %q", tc.href, u.String(), tc.want)
		}
	}

	// And the effect the bug had: the link was silently dropped.
	l := &pageLoad{b: &Browser{scratch: newVisitScratch()}, pageURL: base, result: &PageResult{}}
	l.extractLinks(htmlparse.Parse(`<a href="/out?to=http://x.example/">out</a><a href="/plain">plain</a>`))
	want := []string{"http://pub.example/out?to=http://x.example/", "http://pub.example/plain"}
	if !reflect.DeepEqual(l.result.Links, want) {
		t.Errorf("links = %q, want %q", l.result.Links, want)
	}
}
