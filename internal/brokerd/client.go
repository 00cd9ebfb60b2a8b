package brokerd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a TCP connection to a brokerd server. One client may publish
// freely and hold at most one subscription, mirroring the server side.
// Client is safe for concurrent use.
type Client struct {
	conn net.Conn
	fw   *frameWriter
	fr   *bufio.Reader

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan *Frame
	msgs    chan *Delivery
	closed  bool
	readErr error
	done    chan struct{}
}

// Delivery is a message received from a subscription.
type Delivery struct {
	MsgID    uint64
	Topic    string
	Body     []byte
	Attempts int
	Time     time.Time
}

// ErrClientClosed is returned after Close.
var ErrClientClosed = errors.New("brokerd: client closed")

// ServerError is an application-level error reply from the broker — the
// request made it across the wire and the broker refused it. Retrying
// the same request will not help, unlike a transport failure.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// DefaultDialTimeout bounds DialContext when neither the context nor a
// WithDialTimeout option imposes a tighter deadline.
const DefaultDialTimeout = 10 * time.Second

// DialOption customizes DialContext.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout time.Duration
}

// WithDialTimeout caps how long the TCP dial may take. The context's own
// deadline still applies; the effective bound is whichever is sooner.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// DialContext connects to a brokerd server, honoring ctx for
// cancellation and deadline.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{timeout: DefaultDialTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	d := net.Dialer{Timeout: cfg.timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		fw:      newFrameWriter(conn),
		fr:      newFrameReader(conn),
		pending: map[uint64]chan *Frame{},
		msgs:    make(chan *Delivery, 1024),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		f, err := ReadFrame(c.fr)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, ch := range c.pending {
				close(ch)
			}
			c.pending = map[uint64]chan *Frame{}
			c.mu.Unlock()
			close(c.msgs)
			return
		}
		switch f.Op {
		case OpMsg:
			c.msgs <- &Delivery{MsgID: f.MsgID, Topic: f.Topic, Body: f.Body, Attempts: f.Attempts, Time: f.Time}
		case OpOK, OpErr:
			c.mu.Lock()
			ch, ok := c.pending[f.Seq]
			if ok {
				delete(c.pending, f.Seq)
			}
			c.mu.Unlock()
			if ok {
				ch <- f
			}
		}
	}
}

// call sends a request frame and waits for its reply. A done ctx
// abandons the wait (the reply, if it ever lands, is discarded by the
// pending-map cleanup) — it does not tear down the connection.
func (c *Client) call(ctx context.Context, f *Frame) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextSeq++
	f.Seq = c.nextSeq
	ch := make(chan *Frame, 1)
	c.pending[f.Seq] = ch
	c.mu.Unlock()

	if err := c.fw.write(f); err != nil {
		c.mu.Lock()
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("brokerd: connection lost awaiting reply")
		}
		if reply.Op == OpErr {
			return nil, &ServerError{Msg: reply.Error}
		}
		return reply, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Publish sends body to topic and returns the broker-assigned message ID.
func (c *Client) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	reply, err := c.call(ctx, &Frame{Op: OpPub, Topic: topic, Body: body})
	if err != nil {
		return 0, err
	}
	return reply.MsgID, nil
}

// Subscribe attaches this connection to topic/channel. Deliveries arrive
// on C(); the channel closes when the connection drops or Close is
// called.
func (c *Client) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) error {
	_, err := c.call(ctx, &Frame{Op: OpSub, Topic: topic, Channel: channel, MaxInFlight: maxInFlight})
	return err
}

// C returns the delivery stream for the connection's subscription.
func (c *Client) C() <-chan *Delivery { return c.msgs }

// Ack acknowledges a delivery.
func (c *Client) Ack(ctx context.Context, d *Delivery) error {
	_, err := c.call(ctx, &Frame{Op: OpAck, MsgID: d.MsgID})
	return err
}

// Requeue returns a delivery to the queue for redelivery.
func (c *Client) Requeue(ctx context.Context, d *Delivery) error {
	_, err := c.call(ctx, &Frame{Op: OpReq, MsgID: d.MsgID})
	return err
}

// Ping checks server liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &Frame{Op: OpPing})
	return err
}

// Stats fetches the broker's queue snapshot — the depth signal the
// elastic provisioner consumes.
func (c *Client) Stats(ctx context.Context) ([]TopicStats, error) {
	reply, err := c.call(ctx, &Frame{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return reply.Stats, nil
}

// CloseSubscription detaches the subscription without dropping the
// connection (unacknowledged messages are requeued server-side).
func (c *Client) CloseSubscription(ctx context.Context) error {
	_, err := c.call(ctx, &Frame{Op: OpClose})
	return err
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
