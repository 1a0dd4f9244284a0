package main

import (
	"net"
	"sync"
	"time"
)

// The socket seam, seen from the server's side. A clocked listener hands out
// connections that note when bytes arrived from a client and when bytes
// left for one. At concurrency 1 that brackets one request as the server
// process sees it — from the Read that delivered the request to the Write
// that hands the reply to the kernel — without touching the program: the
// traced pass subtracts it from the client's own span to get the client
// library's self time (encode, syscalls, loopback transit, decode)
// independently of every span measured beneath the socket. Timed runs
// listen on a plain socket.

type connClock struct {
	mu        sync.Mutex
	firstRead time.Time // the first Read that returned bytes since the last take
	lastWrite time.Time // when the latest Write since the last take was called
}

// take returns and clears the bracket. start is zero if nothing arrived.
func (c *connClock) take() (start, end time.Time) {
	c.mu.Lock()
	start, end = c.firstRead, c.lastWrite
	c.firstRead, c.lastWrite = time.Time{}, time.Time{}
	c.mu.Unlock()
	return start, end
}

type clockedListener struct {
	net.Listener
	clock *connClock
}

func (l clockedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &clockedConn{Conn: conn, clock: l.clock}, nil
}

type clockedConn struct {
	net.Conn
	clock *connClock
}

func (c *clockedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.clock.mu.Lock()
		if c.clock.firstRead.IsZero() {
			c.clock.firstRead = now
		}
		c.clock.mu.Unlock()
	}
	return n, err
}

// Write notes the time before it writes: the client can have the reply, and
// the traced pass can take the bracket, before the write call returns here.
func (c *clockedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.clock.mu.Lock()
	c.clock.lastWrite = now
	c.clock.mu.Unlock()
	return c.Conn.Write(p)
}
