// Package brokerd exposes an internal/broker engine over TCP so RAI
// clients and workers on different machines can exchange messages, the
// way the paper's deployment ran a shared queue service between student
// laptops and AWS workers.
//
// The wire protocol is deliberately simple: each frame is a 4-byte
// big-endian length followed by a payload. Requests carry a client
// sequence number that the matching reply echoes, so one connection can
// pipeline publishes while a subscription streams messages.
//
// The payload is a compact binary encoding from a connection's first
// byte: an op byte, fixed-width ids, and the body as raw bytes
// (DESIGN.md §11).
package brokerd

import "time"

// Op codes used on the wire.
const (
	OpPub   = "PUB"   // client -> server: publish Body to Topic
	OpSub   = "SUB"   // client -> server: subscribe Topic/Channel
	OpAck   = "ACK"   // client -> server: acknowledge MsgID
	OpReq   = "REQ"   // client -> server: requeue MsgID
	OpPing  = "PING"  // client -> server: liveness check
	OpOK    = "OK"    // server -> client: success reply to Seq
	OpErr   = "ERR"   // server -> client: failure reply to Seq
	OpMsg   = "MSG"   // server -> client: delivered message
	OpClose = "CLOSE" // client -> server: close subscription
	OpStats = "STATS" // client -> server: queue statistics snapshot
)

// Frame is the single wire message shape for both directions.
type Frame struct {
	Op      string
	Seq     uint64
	Topic   string
	Channel string
	// MaxInFlight applies to SUB.
	MaxInFlight int
	// MsgID identifies the message for ACK/REQ and deliveries.
	MsgID    uint64
	Body     []byte
	Attempts int
	Time     time.Time
	Error    string
	// Stats carries the broker snapshot in OpStats replies (the queue
	// depth signal provisioning watches, paper §VII).
	Stats []TopicStats
}

// TopicStats mirrors broker.TopicStats on the wire.
type TopicStats struct {
	Topic    string         `json:"topic"`
	Backlog  int            `json:"backlog"`
	Channels []ChannelStats `json:"channels,omitempty"`
}

// ChannelStats mirrors broker.ChannelStats on the wire.
type ChannelStats struct {
	Channel     string `json:"channel"`
	Depth       int    `json:"depth"`
	InFlight    int    `json:"in_flight"`
	Subscribers int    `json:"subscribers"`
}

// maxFrameSize bounds a single frame (a project archive travels through
// the object store, not the queue, so frames stay small; 16 MiB is ample
// and caps memory per connection).
const maxFrameSize = 16 << 20
