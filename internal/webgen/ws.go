package webgen

import (
	"repro/internal/detrand"
	"repro/internal/payload"
	"repro/internal/urlutil"
)

// WSEndpoint describes one WebSocket-accepting endpoint.
type WSEndpoint struct {
	// Company is the receiving company, nil for generic feed endpoints
	// and publisher-hosted sockets.
	Company *Company
	// Publisher is set for publisher-hosted (self) sockets.
	Publisher *Publisher
}

// WSEndpointFor resolves the endpoint serving a WebSocket handshake to
// host+path, or false if the world hosts no socket there.
func (w *World) WSEndpointFor(host, path string) (*WSEndpoint, bool) {
	reg := urlutil.RegistrableDomain(host)
	if pub := w.pubByDomain[reg]; pub != nil {
		// "/live" is the publisher's own socket; "/stream" serves
		// partners that treat the publisher as a data source (the
		// googleapis → sportingindex pair of Table 4).
		if path == "/live" || path == "/stream" {
			return &WSEndpoint{Publisher: pub}, true
		}
		return nil, false
	}
	if c := w.companyByDomain[reg]; c != nil {
		want := c.WSPath
		if want == "" {
			want = "/ws"
		}
		if c.AcceptsWS && path == want {
			return &WSEndpoint{Company: c}, true
		}
		// Companies in partner pools that do not formally accept
		// sockets still answer as generic endpoints (the real web is
		// ragged like that).
		if path == "/ws" || path == "/stream" {
			return &WSEndpoint{Company: c}, true
		}
		return nil, false
	}
	if w.feedDomains[reg] && path == "/stream" {
		return &WSEndpoint{}, true
	}
	return nil, false
}

// WSMessages builds the messages an endpoint pushes for one connection,
// given the query parameters of the socket URL (sid seeds the content, n
// caps the count — the page knows its protocol, like real apps).
func (w *World) WSMessages(ep *WSEndpoint, query string) [][]byte {
	n := atoi(queryParam(query, "n"))
	if n <= 0 {
		return nil
	}
	if n > 8 {
		n = 8
	}
	// payload.Respond draws through a *rand.Rand; one per socket.
	rng := detrand.New(w.seed([]string{"wsresp", queryParam(query, "sid"), query}))
	var kinds []string
	cdn := ""
	switch {
	case ep.Company != nil && len(ep.Company.RespondKinds) > 0:
		kinds = ep.Company.RespondKinds
		cdn = ep.Company.AdCDNHost
		if cdn == "" {
			cdn = "static." + ep.Company.Domain
		}
	case ep.Publisher != nil:
		kinds = []string{payload.RespJSON, payload.RespHTML}
		cdn = ep.Publisher.Domain
	default:
		kinds = []string{payload.RespJSON}
		cdn = "feedstatic.example.net"
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		kind := kinds[(i+rng.Intn(len(kinds)))%len(kinds)]
		out = append(out, payload.Respond(kind, cdn, rng))
	}
	return out
}
