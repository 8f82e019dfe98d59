package colstore

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

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
// only for format=text, and encodes. Response bytes are never cached.
// /dataset streams the full store-derived dataset JSON — byte-identical
// to the merge oracle's WriteJSON, which is how the differential tests
// compare a served store against a merged spool. /refresh rescans the
// store directory for newly sealed segments, the live-query path for a
// read-only store following an active crawl.
func NewHandler(store *Store) http.Handler {
	e := NewEngine(store)
	mux := http.NewServeMux()
	mux.HandleFunc("/tables", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			v := r.URL.Query()
			n, _ := strconv.Atoi(v.Get("table"))
			top, _ := strconv.Atoi(v.Get("top"))
			sec, rows, ok := e.Table(n)
			if !ok {
				return badRequest("table must be 1..5")
			}
			rows = sec.Cut(rows, top)
			if v.Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_, werr := io.WriteString(w, sec.Text(rows))
				return werr
			}
			return writeJSON(w, rows)
		})
	})
	mux.HandleFunc("/sites", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			v := r.URL.Query()
			q := SitesQuery{Domain: v.Get("domain")}
			q.MinRank, _ = strconv.Atoi(v.Get("minRank"))
			q.MaxRank, _ = strconv.Atoi(v.Get("maxRank"))
			q.WithSockets = v.Get("withSockets") == "true"
			return writeJSON(w, e.Sites(q))
		})
	})
	mux.HandleFunc("/chains", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			v := r.URL.Query()
			q := ChainsQuery{
				Site:          v.Get("site"),
				Initiator:     v.Get("initiator"),
				Receiver:      v.Get("receiver"),
				ChainContains: v.Get("contains"),
				AA:            AAFilter(v.Get("aa")),
				GroupBy:       v.Get("groupBy"),
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
			if s := v.Get("crossOrigin"); s != "" {
				b := s == "true"
				q.CrossOrigin = &b
			}
			if s := v.Get("blocked"); s != "" {
				b := s == "true"
				q.Blocked = &b
			}
			q.Limit, _ = strconv.Atoi(v.Get("limit"))
			return writeJSON(w, e.Chains(q))
		})
	})
	mux.HandleFunc("/labels", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func() error {
			v := r.URL.Query()
			q := LabelsQuery{Domain: v.Get("domain"), OnlyAA: v.Get("onlyAA") == "true"}
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

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}
