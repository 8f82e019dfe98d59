package colstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// disorderedRecords are page records whose lists break the ascending
// key order a record keeps, each named for what it breaks. The encoder
// writes lists as it finds them, so each one's segment reaches the
// decoder out of order.
func disorderedRecords() map[string]*analysis.PageRecord {
	with := func(edit func(*analysis.PageRecord)) *analysis.PageRecord {
		r := &analysis.PageRecord{Site: "pub.com", Rank: 1, PageURL: "http://pub.com/"}
		edit(r)
		return r
	}
	return map[string]*analysis.PageRecord{
		"HTTP entries out of order": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1}, {Domain: "cdn.com", Requests: 1}}
		}),
		"a duplicate HTTP entry": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1}, {Domain: "t.com", Requests: 1}}
		}),
		"sent items out of order": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1,
				SentItems: []analysis.Count{{Key: "user-agent", N: 1}, {Key: "cookies", N: 1}}}}
		}),
		"a duplicate recv class": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 2,
				RecvClasses: []analysis.Count{{Key: "html", N: 1}, {Key: "html", N: 1}}}}
		}),
		"a duplicate A&A key": with(func(r *analysis.PageRecord) {
			r.AAObs = []analysis.Count{{Key: "t.com", N: 1}, {Key: "t.com", N: 2}}
		}),
		"non-A&A keys out of order": with(func(r *analysis.PageRecord) {
			r.NonAAObs = []analysis.Count{{Key: "z.com", N: 1}, {Key: "a.com", N: 1}}
		}),
		"CDN keys out of order": with(func(r *analysis.PageRecord) {
			r.CDNObs = []analysis.Count{{Key: "b.net", N: 1}, {Key: "a.net", N: 1}}
		}),
	}
}

// keyedAwayBlock is the page block of a record whose one HTTP entry is
// keyed by another domain than its domain field, which no encoder
// writes: its key ID is patched to the ID of an A&A key.
func keyedAwayBlock() []byte {
	var e segEncoder
	e.add(&analysis.PageRecord{Site: "pub.com", Rank: 1, PageURL: "http://pub.com/",
		HTTP:  []analysis.PageTraffic{{Domain: "t.com", Requests: 1}},
		AAObs: []analysis.Count{{Key: "a.com", N: 1}}})
	// The HTTP column: entry marker, key ID, domain ID, …
	e.cols[colHTTP][1] = byte(e.doms.id("a.com"))
	return e.appendSegment(nil, 0)
}

// disorderedSegments are the segments of disorderedRecords, one record
// each and numbered 0 — page blocks too — and keyedAwayBlock.
func disorderedSegments() map[string][]byte {
	out := map[string][]byte{"an HTTP key that is not its domain": keyedAwayBlock()}
	for name, rec := range disorderedRecords() {
		out[name] = encodeSegment(0, []*analysis.PageRecord{rec})
	}
	return out
}

// TestDecoderRefusesDisorderedRecords: a segment whose lists are out of
// order, duplicate a key, or key an HTTP entry by another domain is
// refused — as a page block, and as a store's sealed segment, which
// replays as damaged.
func TestDecoderRefusesDisorderedRecords(t *testing.T) {
	for name, data := range disorderedSegments() {
		want := "follows"
		if strings.HasPrefix(name, "an HTTP key") {
			want = "keyed"
		}
		if rec, err := DecodePageBlock(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: page block decoded to %+v, %v; want it refused (%q)", name, rec, err, want)
		}
		dir := t.TempDir()
		st, err := Open(Config{Dir: dir, Meta: testMeta()})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var damaged *DamagedSegmentError
		if _, err := OpenRead(dir); !errors.As(err, &damaged) {
			t.Errorf("%s: a store holding the segment opened with %v, want it damaged", name, err)
		}
	}
}
