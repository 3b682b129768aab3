package main

import (
	"context"
	"net"
	"sync/atomic"
)

// network is the shape of the program's transport.Network; the wrapper
// below satisfies it structurally.
type network interface {
	Dial(ctx context.Context, endpoint string) (net.Conn, error)
	Listen(endpoint string) (net.Listener, error)
}

// connCounters counts the traffic on the client peer's connections. The
// same four atomic adds run in plain and traced runs, so their cost is part
// of both.
type connCounters struct {
	dials    atomic.Int64
	writes   atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

type connCounts struct{ dials, writes, bytesOut, bytesIn int64 }

func (c *connCounters) read() connCounts {
	return connCounts{c.dials.Load(), c.writes.Load(), c.bytesOut.Load(), c.bytesIn.Load()}
}

func (a connCounts) add(b connCounts) connCounts {
	return connCounts{a.dials + b.dials, a.writes + b.writes, a.bytesOut + b.bytesOut, a.bytesIn + b.bytesIn}
}

func (a connCounts) sub(b connCounts) connCounts {
	return connCounts{a.dials - b.dials, a.writes - b.writes, a.bytesOut - b.bytesOut, a.bytesIn - b.bytesIn}
}

// countingNetwork wraps the network view the client peer dials through.
type countingNetwork struct {
	inner network
	c     *connCounters
}

func (n *countingNetwork) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	conn, err := n.inner.Dial(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	n.c.dials.Add(1)
	return &countingConn{Conn: conn, c: n.c}, nil
}

func (n *countingNetwork) Listen(endpoint string) (net.Listener, error) {
	return n.inner.Listen(endpoint)
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	return n, err
}
