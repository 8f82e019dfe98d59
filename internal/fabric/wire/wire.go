// Package wire defines the fabric dispatcher's wire protocol: the
// versioned frames a crawl coordinator and its workers exchange over a
// WebSocket (internal/wsproto) connection. (The coordinator's durable
// state is its crawl's column store, written by its dispatch.Ledger;
// nothing on disk is defined here.)
//
// Every frame but one is a WebSocket text message holding one JSON
// object with a mandatory "v" (protocol version) and "type" field,
// encoded and decoded by encoding/json. The page frame, one per crawled
// page and the protocol's hot frame, is a binary message:
//
//	byte     Version
//	uvarint  len(batch), then the batch ID's bytes
//	uvarint  len(site), then the site domain's bytes
//	...      the page block, to the end of the message
//
// Decode tells the two apart by their first byte: a JSON frame starts
// with '{', a page frame with its version. Encoding goes through
// Encode/Decode so version and type validation cannot be skipped; the
// exact bytes are golden-tested (wire_test.go), because byte drift here
// is a cross-process compatibility break, not a refactor. The fabric
// holds each frame to its message type: a page frame sent as text, or
// any other frame sent as binary, ends the session.
//
// Version 2 changed one frame: a page carries its record as a page
// block — the one-record segment image of the crawl's column store
// (colstore.AppendPageBlock) — which JSON renders as base64, where v1
// carried the record's JSON line. Version 3 made a crawl's fault
// profile part of it: the welcome's CrawlConfig carries the profile and
// its seed, and a grant carries each site's attempt number (which keys
// that site's fault schedules) where v2 carried one attempt for the
// whole grant. A v2 worker would crawl a faulted config with no faults,
// so it is refused at its first frame. Version 4 made the page frame
// binary: v3 carried the same block as base64 inside a JSON frame,
// which cost the coordinator a JSON and a base64 decode of every page.
//
// The package is deliberately pure: types, encoding, and validation
// only — no sockets, no clocks, no goroutines. It is on the wslint
// determinism list; everything time- or network-shaped lives in the
// parent fabric package.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Version is the fabric protocol version. A coordinator refuses hellos
// from other versions, and Decode refuses frames from other versions:
// mixed fleets fail fast at the handshake, not mid-crawl.
const Version = 4

// Frame types, worker→coordinator (W→C) and coordinator→worker (C→W).
const (
	// TypeHello (W→C) opens a session and names the worker.
	TypeHello = "hello"
	// TypeWelcome (C→W) accepts a session and carries the crawl
	// configuration the worker must reproduce locally.
	TypeWelcome = "welcome"
	// TypeLease (W→C) requests the next grant of sites.
	TypeLease = "lease"
	// TypeGrant (C→W) leases a group of sites to the worker.
	TypeGrant = "grant"
	// TypeWait (C→W) is a keepalive while the worker is queued for a
	// grant: nothing is ready yet, but the queue is not drained.
	TypeWait = "wait"
	// TypeDrained (C→W) reports that every site is settled; the worker
	// should disconnect.
	TypeDrained = "drained"
	// TypeHeartbeat (W→C) extends the worker's leases on a grant.
	TypeHeartbeat = "heartbeat"
	// TypeHeartbeatAck (C→W) answers a heartbeat; Valid=false tells the
	// worker a lease was reclaimed and the grant must be abandoned.
	TypeHeartbeatAck = "heartbeat_ack"
	// TypePage (W→C) streams one page record of a grant, as its page
	// block.
	TypePage = "page"
	// TypeComplete (W→C) settles a grant: every site was attempted and
	// all its pages were streamed; each site settles on its own.
	TypeComplete = "complete"
	// TypeFail (W→C) reports a grant the worker could not run; the
	// coordinator fails each of its sites under the retry policy.
	TypeFail = "fail"
)

// Site is the wire form of one crawl target.
type Site struct {
	Domain string `json:"domain"`
	Rank   int    `json:"rank,omitempty"`
	// Attempt is this crawl of the site's number: 1 for its first try,
	// 2 for its first retry… It keys the site's fault schedules, so a
	// retry draws fresh faults, as a local crawl's retry does.
	Attempt int `json:"attempt"`
}

// Batch is one grant of crawl work: the sites one claim step leased to
// the worker, in rank order, under an ID that names the grant within its
// session (Seq numbers the session's grants). Heartbeats, pages and
// settles cite the ID; nothing outside the session does.
type Batch struct {
	ID    string `json:"id"`
	Seq   int    `json:"seq"`
	Sites []Site `json:"sites"`
}

// CrawlConfig is everything a worker needs to reconstruct the crawl
// locally: the synthetic world, the browser era, the seeds, and the
// fault profile. Two workers given the same CrawlConfig build
// byte-identical worlds and produce byte-identical page records for the
// same attempt of a site — the fabric's whole determinism contract
// reduces to this plus the canonical merge.
type CrawlConfig struct {
	// Name labels the crawl (checkpoint/dataset identity).
	Name string `json:"name"`
	// Era is the webgen era string ("pre" or "post").
	Era string `json:"era"`
	// CrawlIndex perturbs session randomness between crawls.
	CrawlIndex int `json:"crawlIndex"`
	// BrowserVersion is the Chrome version to emulate.
	BrowserVersion int `json:"browserVersion"`
	// Seed is the world seed (the study seed, not the per-crawl seed).
	Seed int64 `json:"seed"`
	// NumPublishers scales the synthetic web.
	NumPublishers int `json:"numPublishers"`
	// PagesPerSite is the per-site page budget.
	PagesPerSite int `json:"pagesPerSite"`
	// FaultProfile names the faultnet profile every worker's browsers
	// inject into their connections, as a local crawl's do; empty for a
	// fault-free crawl. FaultSeed keys the schedules, and is zero when
	// FaultProfile is empty.
	FaultProfile string `json:"faultProfile,omitempty"`
	FaultSeed    int64  `json:"faultSeed,omitempty"`
}

// Hello opens a worker session.
type Hello struct {
	// Worker names the worker (unique per fleet; used in logs/metrics).
	Worker string `json:"worker"`
}

// Welcome accepts a worker session.
type Welcome struct {
	// Crawl is the configuration the worker must reproduce.
	Crawl CrawlConfig `json:"crawl"`
	// LeaseTTLMillis is the coordinator's lease TTL; workers heartbeat
	// at a fraction of it.
	LeaseTTLMillis int64 `json:"leaseTtlMillis"`
}

// Grant leases a group of sites to the worker.
type Grant struct {
	Batch Batch `json:"batch"`
}

// Heartbeat extends every lease of a grant.
type Heartbeat struct {
	Batch string `json:"batch"`
}

// HeartbeatAck answers a heartbeat.
type HeartbeatAck struct {
	Batch string `json:"batch"`
	// Valid is false when a lease of the grant was reclaimed; the worker
	// must abandon the grant (another worker may already be re-running
	// its sites), and the coordinator releases the rest.
	Valid bool `json:"valid"`
}

// Page streams one page record as its page block, in the binary page
// frame (AppendPage).
type Page struct {
	Batch string
	// Site is the page's site domain (the coordinator refuses a record
	// of another site).
	Site string
	// Line is the record's page block, exactly as
	// colstore.AppendPageBlock wrote it. The coordinator decodes it with
	// colstore.DecodePageBlock and hands the record to its ledger as a
	// local crawl hands its records, so the distributed store holds the
	// records a local one does. A decoded Page's Line aliases the frame
	// it was decoded from — the connection's read buffer — so it is
	// valid only until the next read.
	Line []byte
}

// Complete settles a grant.
type Complete struct {
	Batch string `json:"batch"`
	// Pages is the number of page records the worker streamed for this
	// grant. The coordinator only logs it: TCP ordering already delivered
	// every page frame before this settle.
	Pages int `json:"pages"`
	// FailedSites maps the sites that failed in this attempt to their
	// error. Each retries under the coordinator's retry policy, as a
	// failed site of a local crawl does; every other site is done.
	FailedSites map[string]string `json:"failedSites,omitempty"`
}

// Fail reports a grant the worker could not finish.
type Fail struct {
	Batch string `json:"batch"`
	Err   string `json:"err"`
}

// frame is the envelope every message travels in.
type frame struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Hello        *Hello        `json:"hello,omitempty"`
	Welcome      *Welcome      `json:"welcome,omitempty"`
	Grant        *Grant        `json:"grant,omitempty"`
	Heartbeat    *Heartbeat    `json:"heartbeat,omitempty"`
	HeartbeatAck *HeartbeatAck `json:"heartbeatAck,omitempty"`
	Complete     *Complete     `json:"complete,omitempty"`
	Fail         *Fail         `json:"fail,omitempty"`
}

// Message is any payload Encode accepts. Lease, Wait, and Drained are
// payload-free: encode them as bare type strings via EncodeControl.
type Message interface{ frameType() string }

func (*Hello) frameType() string        { return TypeHello }
func (*Welcome) frameType() string      { return TypeWelcome }
func (*Grant) frameType() string        { return TypeGrant }
func (*Heartbeat) frameType() string    { return TypeHeartbeat }
func (*HeartbeatAck) frameType() string { return TypeHeartbeatAck }
func (*Page) frameType() string         { return TypePage }
func (*Complete) frameType() string     { return TypeComplete }
func (*Fail) frameType() string         { return TypeFail }

// Encode renders one message as a versioned frame: a page as its binary
// frame, any other message as JSON.
func Encode(m Message) ([]byte, error) {
	if p, ok := m.(*Page); ok {
		return AppendPage(nil, p), nil
	}
	f := frame{V: Version, Type: m.frameType()}
	switch v := m.(type) {
	case *Hello:
		f.Hello = v
	case *Welcome:
		f.Welcome = v
	case *Grant:
		f.Grant = v
	case *Heartbeat:
		f.Heartbeat = v
	case *HeartbeatAck:
		f.HeartbeatAck = v
	case *Complete:
		f.Complete = v
	case *Fail:
		f.Fail = v
	default:
		return nil, fmt.Errorf("wire: unencodable message %T", m)
	}
	return json.Marshal(&f)
}

// EncodeControl renders a payload-free frame (lease, wait, drained).
func EncodeControl(typ string) ([]byte, error) {
	switch typ {
	case TypeLease, TypeWait, TypeDrained:
		return json.Marshal(&frame{V: Version, Type: typ})
	}
	return nil, fmt.Errorf("wire: %q is not a control frame type", typ)
}

// AppendPage appends p's binary page frame to dst, growing it at most
// once.
func AppendPage(dst []byte, p *Page) []byte {
	if n := 1 + 2*binary.MaxVarintLen64 + len(p.Batch) + len(p.Site) + len(p.Line); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(p.Batch)))
	dst = append(dst, p.Batch...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Site)))
	dst = append(dst, p.Site...)
	return append(dst, p.Line...)
}

// Decoded is one parsed frame: its type plus the payload for that type
// (nil for control frames).
type Decoded struct {
	Type string
	Msg  Message
}

// Decode parses and validates one frame: version, known type, and
// payload presence are all enforced here so session loops never see a
// half-formed message. A decoded page's Line aliases data.
func Decode(data []byte) (Decoded, error) {
	if len(data) > 0 && data[0] != '{' {
		return decodePage(data)
	}
	var f frame
	if err := json.Unmarshal(data, &f); err != nil {
		return Decoded{}, fmt.Errorf("wire: malformed frame: %w", err)
	}
	if f.V != Version {
		return Decoded{}, fmt.Errorf("wire: protocol version %d, this build speaks v%d", f.V, Version)
	}
	var msg Message
	switch f.Type {
	case TypeHello:
		if f.Hello == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Hello
	case TypeWelcome:
		if f.Welcome == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Welcome
	case TypeGrant:
		if f.Grant == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Grant
	case TypeHeartbeat:
		if f.Heartbeat == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Heartbeat
	case TypeHeartbeatAck:
		if f.HeartbeatAck == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.HeartbeatAck
	case TypePage:
		return Decoded{}, errJSONPage
	case TypeComplete:
		if f.Complete == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Complete
	case TypeFail:
		if f.Fail == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Fail
	case TypeLease, TypeWait, TypeDrained:
		// control frames: no payload
	default:
		return Decoded{}, fmt.Errorf("wire: unknown frame type %q", f.Type)
	}
	return Decoded{Type: f.Type, Msg: msg}, nil
}

// decodePage parses a binary page frame.
func decodePage(data []byte) (Decoded, error) {
	if v := data[0]; v != Version {
		return Decoded{}, fmt.Errorf("wire: protocol version %d, this build speaks v%d", v, Version)
	}
	rest := data[1:]
	field := func(what string) (string, error) {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			return "", fmt.Errorf("wire: page frame's %s is truncated", what)
		}
		s := string(rest[k : k+int(n)])
		rest = rest[k+int(n):]
		return s, nil
	}
	batch, err := field("batch")
	if err != nil {
		return Decoded{}, err
	}
	site, err := field("site")
	if err != nil {
		return Decoded{}, err
	}
	if len(rest) == 0 {
		return Decoded{}, missing(TypePage)
	}
	return Decoded{Type: TypePage, Msg: &Page{Batch: batch, Site: site, Line: rest}}, nil
}

// errJSONPage refuses a page frame in JSON, v3's form of it.
var errJSONPage = errors.New("wire: a page frame is binary, not JSON")

func missing(typ string) error {
	return fmt.Errorf("wire: frame type %q missing its payload", typ)
}
