package analysis

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/content"
)

// Table1Row is one crawl's high-level statistics (Table 1).
type Table1Row struct {
	Crawl                string
	Era                  string
	Sites                int
	SitesWithSockets     int
	PctSitesWithSockets  float64
	Sockets              int
	PctAAInitiated       float64
	UniqueAAInitiators   int
	PctAAReceived        float64
	UniqueAAReceivers    int
	SocketsPerSocketSite float64
}

// Table1 computes the high-level statistics for each dataset, using the
// union A&A set across all datasets so crawls are comparable.
func Table1(datasets ...*Dataset) []Table1Row { return table1(UnionAASet(datasets...), datasets) }

func table1(aa map[string]bool, datasets []*Dataset) []Table1Row {
	rows := make([]Table1Row, 0, len(datasets))
	for _, d := range datasets {
		row := Table1Row{Crawl: d.Name, Era: d.Era, Sites: len(d.Sites)}
		for _, s := range d.Sites {
			if s.Sockets > 0 {
				row.SitesWithSockets++
			}
		}
		initiators := map[string]bool{}
		receivers := map[string]bool{}
		aaInit, aaRecv := 0, 0
		for _, ws := range d.Sockets {
			row.Sockets++
			if aaChain(ws, aa) {
				aaInit++
				if ws.InitiatorDomain != "" {
					initiators[initiatorOfRecord(ws, aa)] = true
				}
			}
			if aa[ws.ReceiverDomain] {
				aaRecv++
				receivers[ws.ReceiverDomain] = true
			}
		}
		if row.Sites > 0 {
			row.PctSitesWithSockets = 100 * float64(row.SitesWithSockets) / float64(row.Sites)
		}
		if row.Sockets > 0 {
			row.PctAAInitiated = 100 * float64(aaInit) / float64(row.Sockets)
			row.PctAAReceived = 100 * float64(aaRecv) / float64(row.Sockets)
		}
		if row.SitesWithSockets > 0 {
			row.SocketsPerSocketSite = float64(row.Sockets) / float64(row.SitesWithSockets)
		}
		row.UniqueAAInitiators = len(initiators)
		row.UniqueAAReceivers = len(receivers)
		rows = append(rows, row)
	}
	return rows
}

// aaChain implements §3.2: the socket counts as A&A-initiated when any
// ancestor resource domain is in D′.
func aaChain(ws SocketRecord, aa map[string]bool) bool {
	for _, dom := range ws.ChainDomains {
		if aa[dom] {
			return true
		}
	}
	return false
}

// initiatorOfRecord returns the A&A domain credited as the socket's
// initiator: the nearest A&A ancestor (usually the direct parent).
func initiatorOfRecord(ws SocketRecord, aa map[string]bool) string {
	for i := len(ws.ChainDomains) - 1; i >= 0; i-- {
		if aa[ws.ChainDomains[i]] {
			return ws.ChainDomains[i]
		}
	}
	return ws.InitiatorDomain
}

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Crawl\tEra\t% Sites w/ Sockets\t% Sockets w/ A&A Initiators\t# Unique A&A Initiators\t% Sockets w/ A&A Receivers\t# Unique A&A Receivers")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%d\t%.1f\t%d\n",
			r.Crawl, r.Era, r.PctSitesWithSockets, r.PctAAInitiated, r.UniqueAAInitiators, r.PctAAReceived, r.UniqueAAReceivers)
	}
	w.Flush()
	return b.String()
}

// InitiatorRow is one row of Table 2.
type InitiatorRow struct {
	Domain      string
	IsAA        bool
	Receivers   int
	AAReceivers int
	SocketCount int
}

// Table2 ranks initiator domains by unique receivers (Table 2).
func Table2(topN int, datasets ...*Dataset) []InitiatorRow {
	return cutRanked(table2(UnionAASet(datasets...), datasets), topN)
}

// table2 is every ranked row of Table 2.
func table2(aa map[string]bool, datasets []*Dataset) []InitiatorRow {
	type acc struct {
		row                    InitiatorRow
		receivers, aaReceivers map[string]bool
	}
	rows := map[string]*acc{}
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			init := ws.InitiatorDomain
			if init == "" {
				continue
			}
			r := rows[init]
			if r == nil {
				r = &acc{row: InitiatorRow{Domain: init, IsAA: aa[init]}, receivers: map[string]bool{}, aaReceivers: map[string]bool{}}
				rows[init] = r
			}
			r.row.SocketCount++
			r.receivers[ws.ReceiverDomain] = true
			if aa[ws.ReceiverDomain] {
				r.aaReceivers[ws.ReceiverDomain] = true
			}
		}
	}
	out := make([]InitiatorRow, 0, len(rows))
	for _, r := range rows {
		r.row.Receivers = len(r.receivers)
		r.row.AAReceivers = len(r.aaReceivers)
		out = append(out, r.row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Receivers != out[j].Receivers {
			return out[i].Receivers > out[j].Receivers
		}
		if out[i].SocketCount != out[j].SocketCount {
			return out[i].SocketCount > out[j].SocketCount
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// cutRanked bounds a ranked table to its first top rows (top <= 0 keeps
// them all). The cut shares rows' backing array and caps its capacity,
// so an append to the cut can never write into rows.
func cutRanked[R any](rows []R, top int) []R {
	if top > 0 && len(rows) > top {
		return rows[:top:top]
	}
	return rows
}

// RenderTable2 formats Table 2 (A&A initiators are starred, standing in
// for the paper's bold).
func RenderTable2(rows []InitiatorRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Initiator\t# Receivers Total\t# Receivers A&A\tSocket Count")
	for _, r := range rows {
		name := r.Domain
		if r.IsAA {
			name = "*" + name
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", name, r.Receivers, r.AAReceivers, r.SocketCount)
	}
	w.Flush()
	return b.String() + "(* = A&A domain)\n"
}

// ReceiverRow is one row of Table 3.
type ReceiverRow struct {
	Domain       string
	Initiators   int
	AAInitiators int
	SocketCount  int
}

// Table3 ranks A&A receiver domains by unique initiators (Table 3).
func Table3(topN int, datasets ...*Dataset) []ReceiverRow {
	return cutRanked(table3(UnionAASet(datasets...), datasets), topN)
}

// table3 is every ranked row of Table 3.
func table3(aa map[string]bool, datasets []*Dataset) []ReceiverRow {
	type acc struct {
		row                      ReceiverRow
		initiators, aaInitiators map[string]bool
	}
	rows := map[string]*acc{}
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			if !aa[ws.ReceiverDomain] {
				continue
			}
			r := rows[ws.ReceiverDomain]
			if r == nil {
				r = &acc{row: ReceiverRow{Domain: ws.ReceiverDomain}, initiators: map[string]bool{}, aaInitiators: map[string]bool{}}
				rows[ws.ReceiverDomain] = r
			}
			r.row.SocketCount++
			if ws.InitiatorDomain != "" {
				r.initiators[ws.InitiatorDomain] = true
				if aa[ws.InitiatorDomain] {
					r.aaInitiators[ws.InitiatorDomain] = true
				}
			}
		}
	}
	out := make([]ReceiverRow, 0, len(rows))
	for _, r := range rows {
		r.row.Initiators = len(r.initiators)
		r.row.AAInitiators = len(r.aaInitiators)
		out = append(out, r.row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Initiators != out[j].Initiators {
			return out[i].Initiators > out[j].Initiators
		}
		if out[i].SocketCount != out[j].SocketCount {
			return out[i].SocketCount > out[j].SocketCount
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []ReceiverRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Receiver\t# Initiators Total\t# Initiators A&A\tSocket Count")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", r.Domain, r.Initiators, r.AAInitiators, r.SocketCount)
	}
	w.Flush()
	return b.String()
}

// PairRow is one row of Table 4.
type PairRow struct {
	Initiator   string
	Receiver    string
	InitiatorAA bool
	ReceiverAA  bool
	SocketCount int
	// SelfAggregate marks the combined "A&A domain to itself" row.
	SelfAggregate bool
}

// table4 ranks initiator/receiver pairs with at least one A&A party:
// every ranked row, then one final row aggregating the self-pairs, as
// the paper does.
func table4(aa map[string]bool, datasets []*Dataset) []PairRow {
	type key struct{ init, recv string }
	pairs := map[key]int{}
	selfTotal := 0
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			init, recv := ws.InitiatorDomain, ws.ReceiverDomain
			if init == "" || (!aa[init] && !aa[recv]) {
				continue
			}
			if init == recv {
				selfTotal += 1
				continue
			}
			pairs[key{init, recv}]++
		}
	}
	out := make([]PairRow, 0, len(pairs)+1)
	for k, n := range pairs {
		out = append(out, PairRow{
			Initiator: k.init, Receiver: k.recv,
			InitiatorAA: aa[k.init], ReceiverAA: aa[k.recv],
			SocketCount: n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SocketCount != out[j].SocketCount {
			return out[i].SocketCount > out[j].SocketCount
		}
		if out[i].Initiator != out[j].Initiator {
			return out[i].Initiator < out[j].Initiator
		}
		return out[i].Receiver < out[j].Receiver
	})
	if selfTotal > 0 {
		out = append(out, PairRow{
			Initiator: "A&A domain", Receiver: "itself",
			InitiatorAA: true, ReceiverAA: true,
			SocketCount: selfTotal, SelfAggregate: true,
		})
	}
	return out
}

// cutPairs bounds Table 4 to its first top ranked pairs, keeping the
// self-aggregate row after them. Like cutRanked it never writes into
// rows: a cut that drops pairs gets a fresh slice.
func cutPairs(rows []PairRow, top int) []PairRow {
	ranked, self := rows, rows[len(rows):]
	if n := len(rows); n > 0 && rows[n-1].SelfAggregate {
		ranked, self = rows[:n-1], rows[n-1:]
	}
	if top <= 0 || len(ranked) <= top {
		return rows
	}
	return append(append(make([]PairRow, 0, top+len(self)), ranked[:top]...), self...)
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []PairRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Initiator\tReceiver\tSocket Count")
	for _, r := range rows {
		in, re := r.Initiator, r.Receiver
		if r.InitiatorAA && !r.SelfAggregate {
			in = "*" + in
		}
		if r.ReceiverAA && !r.SelfAggregate {
			re = "*" + re
		}
		fmt.Fprintf(w, "%s\t%s\t%d\n", in, re, r.SocketCount)
	}
	w.Flush()
	return b.String() + "(* = A&A domain)\n"
}

// Table5Row is one content row of Table 5.
type Table5Row struct {
	Item     string
	WSCount  int
	WSPct    float64
	HTTPAbs  int
	HTTPPct  float64
	Received bool
}

// Table5Result holds both halves of Table 5.
type Table5Result struct {
	Sent     []Table5Row
	Received []Table5Row
	// Totals.
	AASockets    int
	HTTPRequests int
	// NoData rows.
	WSNoSent, WSNoRecv       int
	PctWSNoSent, PctWSNoRecv float64
}

// table5 classifies content flowing over A&A sockets versus HTTP/S to
// A&A domains.
func table5(aa map[string]bool, datasets []*Dataset) Table5Result {
	var res Table5Result
	wsItems := map[string]int{}
	wsRecv := map[string]int{}
	for _, d := range datasets {
		for _, ws := range d.Sockets {
			// "A&A sockets": initiated by or received by an A&A party.
			if !aaChain(ws, aa) && !aa[ws.ReceiverDomain] {
				continue
			}
			res.AASockets++
			for _, item := range ws.SentItems {
				wsItems[item]++
			}
			for _, cls := range ws.RecvClasses {
				wsRecv[cls]++
			}
			if ws.FramesSent == 0 {
				res.WSNoSent++
			}
			if ws.FramesRecv == 0 {
				res.WSNoRecv++
			}
		}
	}
	httpItems := map[string]int{}
	httpRecv := map[string]int{}
	for _, d := range datasets {
		for dom, t := range d.HTTPByDomain {
			if !aa[dom] {
				continue
			}
			res.HTTPRequests += t.Requests
			for k, v := range t.SentItems {
				httpItems[k] += v
			}
			for k, v := range t.RecvClasses {
				httpRecv[k] += v
			}
		}
	}
	pct := func(n, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	for _, item := range content.SentItemOrder {
		res.Sent = append(res.Sent, Table5Row{
			Item:    item,
			WSCount: wsItems[item], WSPct: pct(wsItems[item], res.AASockets),
			HTTPAbs: httpItems[item], HTTPPct: pct(httpItems[item], res.HTTPRequests),
		})
	}
	for _, cls := range content.ReceivedItemOrder {
		res.Received = append(res.Received, Table5Row{
			Item: cls, Received: true,
			WSCount: wsRecv[cls], WSPct: pct(wsRecv[cls], res.AASockets),
			HTTPAbs: httpRecv[cls], HTTPPct: pct(httpRecv[cls], res.HTTPRequests),
		})
	}
	res.PctWSNoSent = pct(res.WSNoSent, res.AASockets)
	res.PctWSNoRecv = pct(res.WSNoRecv, res.AASockets)
	return res
}

// RenderTable5 formats Table 5.
func RenderTable5(res Table5Result) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Sent Item\tWS Count\tWS %%\tHTTP Count\tHTTP %%\n")
	for _, r := range res.Sent {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%d\t%.2f\n", r.Item, r.WSCount, r.WSPct, r.HTTPAbs, r.HTTPPct)
	}
	fmt.Fprintf(w, "No data\t%d\t%.2f\t-\t-\n", res.WSNoSent, res.PctWSNoSent)
	fmt.Fprintf(w, "\t\t\t\t\n")
	fmt.Fprintf(w, "Received Item\tWS Count\tWS %%\tHTTP Count\tHTTP %%\n")
	for _, r := range res.Received {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%d\t%.2f\n", r.Item, r.WSCount, r.WSPct, r.HTTPAbs, r.HTTPPct)
	}
	fmt.Fprintf(w, "No data\t%d\t%.2f\t-\t-\n", res.WSNoRecv, res.PctWSNoRecv)
	w.Flush()
	return b.String()
}
