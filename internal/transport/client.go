package transport

import (
	"context"
	"fmt"
	"net"
	"time"
)

// conn is one connection of a ReconnectingClient: the socket, the
// geometry its server announced, and the decoder reading frames off it
// into planes.
type conn struct {
	nc          net.Conn
	dec         *Decoder
	hello       StreamHello
	readTimeout time.Duration
}

// dial connects to a radar server and reads the stream hello; ctx
// bounds both. With readTimeout > 0 every later frame read must finish
// within it, so a server that stalls without closing fails the stream
// instead of hanging the client. With resync the decoder skips corrupt
// frames in-stream (see Decoder.EnableResync) and pins the bin count to
// the hello's announcement, so a corrupted length field cannot stall
// the stream on a phantom payload — which also means a resyncing
// connection treats a mid-stream geometry change as corruption.
func dial(ctx context.Context, addr string, readTimeout time.Duration, resync bool) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := nc.SetReadDeadline(deadline); err != nil {
			nc.Close()
			return nil, fmt.Errorf("transport: set deadline: %w", err)
		}
	}
	hello, err := DecodeHello(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := nc.SetReadDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: clear deadline: %w", err)
	}
	c := &conn{nc: nc, dec: NewDecoder(nc), hello: hello, readTimeout: readTimeout}
	if resync {
		c.dec.EnableResync()
		c.dec.SetExpectedBins(hello.NumBins)
	}
	return c, nil
}

// next reads one frame into the decoder-owned planes, valid until the
// following call.
func (c *conn) next() (PlaneFrame, error) {
	if c.readTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return PlaneFrame{}, fmt.Errorf("transport: set read deadline: %w", err)
		}
	}
	return c.dec.DecodePlanes()
}
