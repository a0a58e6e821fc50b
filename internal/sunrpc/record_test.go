package sunrpc

import (
	"net"
	"sync/atomic"
	"testing"
)

// countingConn is a socket that counts the Reads that returned.
type countingConn struct {
	*net.TCPConn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.reads.Add(1)
	return n, err
}

// countingListener hands out its accepted sockets as countingConns.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{TCPConn: conn.(*net.TCPConn)}
	l.accepted <- cc
	return cc, nil
}

// A record that arrives whole costs its reader one Read — the server's
// reading a call and the client's reading a reply — not one for the
// record mark and one for the body. Sequential calls on loopback: each
// record leaves in one write and arrives in one segment.
func TestOneReadPerRecord(t *testing.T) {
	reply := make([]byte, 8192)
	srv := NewServer()
	srv.Register(testProg, testVers, HandlerFunc(func(*Call) ([]byte, AcceptStat) { return reply, Success }))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *countingConn, 1)
	go srv.Serve(countingListener{l, accepted})
	defer srv.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{TCPConn: raw.(*net.TCPConn)}
	c := NewClient(cc)
	defer c.Close()
	sc := <-accepted

	const calls = 100
	args := make([]byte, 32)
	for i := 0; i < calls; i++ {
		if res, err := c.Call(testProg, testVers, 1, AuthNoneCred, args); err != nil || len(res) != len(reply) {
			t.Fatalf("call %d: %d bytes, %v", i, len(res), err)
		}
	}
	// The last reply was read before its call returned; each reader now
	// waits in a Read that has not returned.
	if got := sc.reads.Load(); got != calls {
		t.Errorf("server: %d Reads for %d calls, want one a call", got, calls)
	}
	if got := cc.reads.Load(); got != calls {
		t.Errorf("client: %d Reads for %d replies, want one a reply", got, calls)
	}
}

// A socket's reader buffers; a transport that holds whole frames in
// memory (net.Pipe here, tunnel.Conn in the stack) is read with eight
// bytes for the mark and the XID, and the body straight into the record.
func TestRecordReaderBuffersSocketsOnly(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rr := newRecordReader(conn)
	if len(rr.buf) != recordBufSize {
		t.Errorf("socket: %d-byte buffer, want %d", len(rr.buf), recordBufSize)
	}
	rr.release()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	if rr := newRecordReader(near); len(rr.buf) != 8 {
		t.Errorf("in-memory transport: %d-byte buffer, want 8", len(rr.buf))
	}
}
