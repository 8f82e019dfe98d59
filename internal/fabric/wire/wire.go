// Package wire defines the fabric dispatcher's wire protocol: the
// versioned JSON frames a crawl coordinator and its workers exchange
// over a WebSocket (internal/wsproto) connection. (The coordinator's
// durable state is its crawl's column store, written by its
// dispatch.Ledger; nothing on disk is defined here.)
//
// Every frame is one WebSocket text message holding one JSON object
// with a mandatory "v" (protocol version) and "type" field, encoded and
// decoded by encoding/json. Encoding goes through Encode/Decode so
// version and type validation cannot be skipped; the exact bytes are
// golden-tested (wire_test.go), because byte drift here is a
// cross-process compatibility break, not a refactor.
//
// Version 2 changed one frame: a page carries its record as a page
// block — the one-record segment image of the crawl's column store
// (colstore.AppendPageBlock) — which JSON renders as base64, where v1
// carried the record's JSON line.
//
// The package is deliberately pure: types, encoding, and validation
// only — no sockets, no clocks, no goroutines. It is on the wslint
// determinism list; everything time- or network-shaped lives in the
// parent fabric package.
package wire

import (
	"encoding/json"
	"fmt"
)

// Version is the fabric protocol version. A coordinator refuses hellos
// from other versions, and Decode refuses frames from other versions:
// mixed fleets fail fast at the handshake, not mid-crawl.
const Version = 2

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
// locally: the synthetic world, the browser era, and the seeds. Two
// workers given the same CrawlConfig build byte-identical worlds and
// produce byte-identical page records for the same site — the fabric's
// whole determinism contract reduces to this plus the canonical merge.
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
	// Attempt is the highest attempt among the grant's sites: 1 when
	// every site is on its first try, 2 when one is on its first retry…
	Attempt int `json:"attempt"`
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

// Page streams one page record as its page block.
type Page struct {
	Batch string `json:"batch"`
	// Site is the page's site domain (the coordinator refuses a record
	// of another site).
	Site string `json:"site"`
	// Line is the record's page block, exactly as
	// colstore.AppendPageBlock wrote it; JSON carries it as base64. The
	// coordinator decodes it with colstore.DecodePageBlock and hands the
	// record to its ledger as a local crawl hands its records, so the
	// distributed store holds the records a local one does.
	Line []byte `json:"line"`
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
	Page         *Page         `json:"page,omitempty"`
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

// Encode renders one message as a versioned frame.
func Encode(m Message) ([]byte, error) {
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
	case *Page:
		f.Page = v
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

// Decoded is one parsed frame: its type plus the payload for that type
// (nil for control frames).
type Decoded struct {
	Type string
	Msg  Message
}

// Decode parses and validates one frame: version, known type, and
// payload presence are all enforced here so session loops never see a
// half-formed message.
func Decode(data []byte) (Decoded, error) {
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
		if f.Page == nil {
			return Decoded{}, missing(f.Type)
		}
		msg = f.Page
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

func missing(typ string) error {
	return fmt.Errorf("wire: frame type %q missing its payload", typ)
}
