package colstore

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/jsonshape"
	"repro/internal/obs"
)

// NewHandler serves the query API over a store (DESIGN.md §15;
// OPERATIONS.md "Query service" is the runbook):
//
//	GET /tables?table=1..5&format=json|text&top=N
//	GET /sites?domain=&minRank=&maxRank=&withSockets=
//	GET /chains?site=&initiator=&receiver=&contains=&aa=&crossOrigin=&blocked=&groupBy=&limit=
//	GET /labels?domain=&onlyAA=
//	GET /dataset
//	GET /storestats
//	GET /refresh
//
// /tables renders through analysis.Sections, so its text is the
// report's; top bounds Tables 2–4 and defaults to the paper's 15. The
// engine computes each table's rows and the label list once per
// snapshot, on first use; a request cuts or filters them, renders text
// only for format=text, and encodes: one json.Marshal, then one
// jsonshape.Indent pass into a pooled buffer, written with its newline
// in one Write — the bytes json.Encoder with SetIndent("", " ") writes.
// Response bytes are never cached. A malformed top, limit, minRank or
// maxRank (not an integer), or withSockets, onlyAA, crossOrigin or
// blocked (not true or false), is a 400 naming the parameter; an empty
// value is an absent one.
// /dataset streams the full store-derived dataset JSON — byte-identical
// to the crawl's own dataset's WriteJSON, which is how the differential
// tests compare a served store against the crawl that wrote it. /refresh rescans the
// store directory for newly sealed segments, the live-query path for a
// read-only store following an active crawl.
func NewHandler(store *Store) http.Handler {
	e := NewEngine(store)
	mux := http.NewServeMux()
	mux.HandleFunc("/tables", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			p := params{v: r.URL.Query()}
			n, _ := strconv.Atoi(p.v.Get("table"))
			top := p.int("top")
			if p.err != nil {
				return p.err
			}
			sec, rows, ok := e.Table(n)
			if !ok {
				return badRequest("table must be 1..5")
			}
			rows = sec.Cut(rows, top)
			if p.v.Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_, werr := io.WriteString(w, sec.Text(rows))
				return werr
			}
			return writeJSON(w, rows)
		})
	})
	mux.HandleFunc("/sites", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			p := params{v: r.URL.Query()}
			q := SitesQuery{
				Domain:      p.v.Get("domain"),
				MinRank:     p.int("minRank"),
				MaxRank:     p.int("maxRank"),
				WithSockets: p.flag("withSockets"),
			}
			if p.err != nil {
				return p.err
			}
			return writeJSON(w, e.Sites(q))
		})
	})
	mux.HandleFunc("/chains", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			p := params{v: r.URL.Query()}
			q := ChainsQuery{
				Site:          p.v.Get("site"),
				Initiator:     p.v.Get("initiator"),
				Receiver:      p.v.Get("receiver"),
				ChainContains: p.v.Get("contains"),
				AA:            AAFilter(p.v.Get("aa")),
				CrossOrigin:   p.bool("crossOrigin"),
				Blocked:       p.bool("blocked"),
				GroupBy:       p.v.Get("groupBy"),
				Limit:         p.int("limit"),
			}
			if p.err != nil {
				return p.err
			}
			switch q.AA {
			case "", "initiated", "received", "any", "none":
			default:
				return badRequest("aa must be initiated|received|any|none")
			}
			switch q.GroupBy {
			case "", "site", "initiator", "receiver", "pair", "recvClass":
			default:
				return badRequest("groupBy must be site|initiator|receiver|pair|recvClass")
			}
			return writeJSON(w, e.Chains(q))
		})
	})
	mux.HandleFunc("/labels", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			p := params{v: r.URL.Query()}
			q := LabelsQuery{Domain: p.v.Get("domain"), OnlyAA: p.flag("onlyAA")}
			if p.err != nil {
				return p.err
			}
			return writeJSON(w, e.Labels(q))
		})
	})
	mux.HandleFunc("/dataset", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			ds, _ := e.Dataset()
			w.Header().Set("Content-Type", "application/json")
			return ds.WriteJSON(w)
		})
	})
	mux.HandleFunc("/storestats", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error { return writeJSON(w, store.Stats()) })
	})
	mux.HandleFunc("/refresh", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			if err := store.Rescan(); err != nil {
				return err
			}
			return writeJSON(w, store.Stats())
		})
	})
	return mux
}

// httpError carries a client-facing status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(msg string) error { return &httpError{status: http.StatusBadRequest, msg: msg} }

// params reads a request's optional parameters. The first malformed one
// is kept in err as a 400 naming it; an empty value reads as absent.
type params struct {
	v   url.Values
	err error
}

func (p *params) fail(name, want string) {
	if p.err == nil {
		p.err = badRequest(name + " must be " + want)
	}
}

// int reads an integer parameter; absent is 0.
func (p *params) int(name string) int {
	s := p.v.Get(name)
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		p.fail(name, "an integer")
	}
	return n
}

// bool reads a true|false parameter; absent is nil.
func (p *params) bool(name string) *bool {
	switch s := p.v.Get(name); s {
	case "":
	case "true", "false":
		b := s == "true"
		return &b
	default:
		p.fail(name, "true or false")
	}
	return nil
}

// flag reads a true|false parameter; absent is false.
func (p *params) flag(name string) bool {
	b := p.bool(name)
	return b != nil && *b
}

// serve wraps a query handler with the store.* request metrics and
// error mapping.
func serve(w http.ResponseWriter, r *http.Request, fn func() error) {
	span := obs.StartSpan(obs.StoreQuery)
	obs.StoreQueries.Inc()
	err := fn()
	span.End()
	if err == nil {
		return
	}
	if he, ok := err.(*httpError); ok {
		http.Error(w, he.msg, he.status)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// indentBufs holds the buffers writeJSON indents into, so a request
// reuses one grown by an earlier response.
var indentBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON writes v as json.Encoder with SetIndent("", " ") would:
// marshalled once, indented in one pass, newline-terminated.
func writeJSON(w http.ResponseWriter, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf := indentBufs.Get().(*[]byte)
	*buf = append(jsonshape.Indent((*buf)[:0], b), '\n')
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(*buf)
	indentBufs.Put(buf)
	return err
}
