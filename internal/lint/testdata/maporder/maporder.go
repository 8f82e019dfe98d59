// Fixture for the maporder analyzer. keysUnsorted and
// handshakeHeaders are the two shapes the analyzer has caught in
// product code; they must keep firing.
package fix

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// keysUnsorted is the content.DetectSentHeaders shape: Table 5 items
// appended while ranging over a header map, so their order changed
// from run to run.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out in map-iteration order"
	}
	return out
}

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // later sort: legal
	}
	sort.Strings(out)
	return out
}

func rowsSortSlice(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = append(rows, k) // sort.Slice referencing rows: legal
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

func dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "writes output inside a map range"
	}
}

// handshakeHeaders is the wsproto client-handshake shape: extra headers
// of a named map type (http.Header, which no syntactic map match sees)
// written straight to the request in map order.
func handshakeHeaders(w io.Writer, extra http.Header) {
	for k, vs := range extra {
		for _, v := range vs {
			fmt.Fprintf(w, "%s: %s\r\n", k, v) // want "writes output inside a map range"
		}
	}
}

type holder struct {
	counts map[string]int
}

func (h *holder) rows() []string {
	var rows []string
	for k := range h.counts {
		rows = append(rows, k) // want "append to rows in map-iteration order"
	}
	return rows
}

func localLiteral() []int {
	m := map[string]int{"a": 1}
	var vals []int
	for _, v := range m {
		vals = append(vals, v) // want "append to vals in map-iteration order"
	}
	return vals
}

func madeMap() []string {
	m := make(map[string]bool)
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out in map-iteration order"
	}
	return out
}

func foldIsFine(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] += v // map-to-map fold: order-insensitive, legal
	}
	return out
}

func sliceRangeIsFine(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x) // slice range: ordered, legal
	}
	return out
}

func allowedByPragma(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow maporder fixture: caller re-sorts the result
		out = append(out, k)
	}
	return out
}
