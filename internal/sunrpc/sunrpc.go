// Package sunrpc implements the ONC RPC version 2 protocol (RFC 5531)
// over stream transports with record marking (RFC 5531 §11). It provides
// a concurrent Client that multiplexes calls over one connection using
// XID matching, and a Server that dispatches registered programs.
//
// Only the features NFSv3 and MOUNT need are implemented: AUTH_NONE and
// AUTH_UNIX credential flavors, accepted replies with the standard
// accept states, and TCP-style record marking. This is the transport
// that the GVFS proxies interpose on: a proxy is simultaneously a
// sunrpc.Server (towards the client) and a sunrpc.Client (towards the
// next hop).
package sunrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gvfs/internal/bufpool"
	"gvfs/internal/xdr"
)

// RPC message constants from RFC 5531.
const (
	rpcVersion = 2

	msgCall  = 0
	msgReply = 1

	replyAccepted = 0
	replyDenied   = 1
)

// AcceptStat is the status of an accepted RPC reply.
type AcceptStat uint32

// Accept states (RFC 5531 §9).
const (
	Success      AcceptStat = 0
	ProgUnavail  AcceptStat = 1
	ProgMismatch AcceptStat = 2
	ProcUnavail  AcceptStat = 3
	GarbageArgs  AcceptStat = 4
	SystemErr    AcceptStat = 5
)

func (s AcceptStat) String() string {
	switch s {
	case Success:
		return "SUCCESS"
	case ProgUnavail:
		return "PROG_UNAVAIL"
	case ProgMismatch:
		return "PROG_MISMATCH"
	case ProcUnavail:
		return "PROC_UNAVAIL"
	case GarbageArgs:
		return "GARBAGE_ARGS"
	case SystemErr:
		return "SYSTEM_ERR"
	}
	return fmt.Sprintf("AcceptStat(%d)", uint32(s))
}

// Auth flavors.
const (
	AuthNone uint32 = 0
	AuthUnix uint32 = 1
)

// OpaqueAuth is an RPC authenticator: a flavor and opaque body.
type OpaqueAuth struct {
	Flavor uint32
	Body   []byte
}

// AuthNoneCred is the empty AUTH_NONE credential.
var AuthNoneCred = OpaqueAuth{Flavor: AuthNone}

// UnixCred is the AUTH_UNIX credential body (RFC 5531 appendix A).
type UnixCred struct {
	Stamp       uint32
	MachineName string
	UID, GID    uint32
	GIDs        []uint32
}

// Encode serializes the credential into an OpaqueAuth.
func (c UnixCred) Encode() OpaqueAuth {
	b := xdr.NewBuilder()
	b.Uint32(c.Stamp)
	b.String(c.MachineName)
	b.Uint32(c.UID)
	b.Uint32(c.GID)
	b.Uint32(uint32(len(c.GIDs)))
	for _, g := range c.GIDs {
		b.Uint32(g)
	}
	return OpaqueAuth{Flavor: AuthUnix, Body: b.B}
}

// DecodeUnixCred parses an AUTH_UNIX opaque body.
func DecodeUnixCred(a OpaqueAuth) (UnixCred, error) {
	if a.Flavor != AuthUnix {
		return UnixCred{}, fmt.Errorf("sunrpc: flavor %d is not AUTH_UNIX", a.Flavor)
	}
	var d xdr.Decoder
	d.ResetBytes(a.Body)
	var c UnixCred
	c.Stamp = d.Uint32()
	c.MachineName = d.String()
	c.UID = d.Uint32()
	c.GID = d.Uint32()
	n := d.Uint32()
	if n > 16 {
		return UnixCred{}, errors.New("sunrpc: too many groups in AUTH_UNIX cred")
	}
	for i := uint32(0); i < n; i++ {
		c.GIDs = append(c.GIDs, d.Uint32())
	}
	if err := d.Err(); err != nil {
		return UnixCred{}, fmt.Errorf("sunrpc: bad AUTH_UNIX cred: %w", err)
	}
	return c, nil
}

// maxRecord bounds a single RPC record. NFSv3 transfers are capped at
// 32 KB of payload; 1 MiB leaves ample room for headers and READDIR
// replies.
const maxRecord = 1 << 20

// writeRecord writes one record-marked RPC message. Header and payload
// go out in a single Write so the message crosses emulated links (and
// tunnel framing) as one unit, costing one propagation delay.
func writeRecord(w io.Writer, payload []byte) error {
	msg := make([]byte, 4+len(payload))
	// Last-fragment bit set: we always send whole messages as one fragment.
	binary.BigEndian.PutUint32(msg[:4], uint32(len(payload))|0x80000000)
	copy(msg[4:], payload)
	_, err := w.Write(msg)
	return err
}

// recordBufSize is the read buffer of a connection whose reads are system
// calls: a 32 KiB NFS transfer with its headers, and the start of the
// record behind it, fit in one read.
const recordBufSize = 64 << 10

// recordReader reads the record-marked messages of one connection. Over a
// transport whose every Read is a system call — a socket, which says so by
// implementing syscall.Conn — it reads into a pooled buffer whatever has
// arrived: the record mark, the body and any part of the next record, so a
// record that arrives whole costs one read and the bytes of the next one
// carry over to it. A transport that already holds whole frames in memory
// (tunnel.Conn) is read as it always was: the mark and the first body word
// in one small read, the rest of the body straight into the record, so a
// record crossing it is copied no more often than before.
type recordReader struct {
	rd    io.Reader
	buf   []byte // buf[r:w] is read and not yet consumed
	r, w  int
	err   error // the transport's last error, returned once buf runs dry
	small [8]byte
}

func newRecordReader(rd io.Reader) *recordReader {
	rr := &recordReader{rd: rd}
	if _, ok := rd.(syscall.Conn); ok {
		rr.buf = bufpool.Get(recordBufSize)
	} else {
		rr.buf = rr.small[:]
	}
	return rr
}

// release returns the buffer to the pool once the connection is done.
func (rr *recordReader) release() {
	bufpool.Put(rr.buf) // a no-op for small
	rr.buf = nil
}

// fill makes at least n <= len(buf) bytes buffered, each Read taking as
// much as the transport has.
func (rr *recordReader) fill(n int) error {
	if rr.w-rr.r >= n {
		return nil
	}
	rr.w = copy(rr.buf, rr.buf[rr.r:rr.w])
	rr.r = 0
	for rr.w < n {
		if rr.err != nil {
			return rr.err
		}
		k, err := rr.rd.Read(rr.buf[rr.w:])
		rr.w += k
		rr.err = err
	}
	return nil
}

// readFull fills p: from the buffer first, then straight from the
// transport for a rest as large as the buffer, else through the buffer.
func (rr *recordReader) readFull(p []byte) error {
	for {
		k := copy(p, rr.buf[rr.r:rr.w])
		rr.r += k
		if p = p[k:]; len(p) == 0 {
			return nil
		}
		if len(p) >= len(rr.buf) {
			if rr.err != nil {
				return rr.err
			}
			_, err := io.ReadFull(rr.rd, p)
			return err
		}
		if err := rr.fill(1); err != nil {
			return err
		}
	}
}

// mark reads a fragment header: the body's length and the last-fragment
// bit.
func (rr *recordReader) mark() (n uint32, last bool, err error) {
	if err := rr.fill(4); err != nil {
		return 0, false, err
	}
	v := binary.BigEndian.Uint32(rr.buf[rr.r:])
	rr.r += 4
	return v &^ 0x80000000, v&0x80000000 != 0, nil
}

// next reads one record. alloc, when non-nil, supplies the record buffer
// (pooled, and then the caller's to bufpool.Put); otherwise it is made to
// the record's size. On error there is no record.
func (rr *recordReader) next(alloc func(int) []byte) ([]byte, error) {
	n, last, err := rr.mark()
	if err != nil {
		return nil, err
	}
	rec, err := rr.body(n, last, alloc)
	if err != nil {
		bufpool.Put(rec) // whichever allocator it came from: nobody else holds it
		return nil, err
	}
	return rec, nil
}

// body reads the rest of a record whose first fragment header (n, last)
// has just been read, reassembling fragments into one buffer from alloc
// (see next). On error the partially-filled buffer is returned for the
// caller to release.
func (rr *recordReader) body(n uint32, last bool, alloc func(int) []byte) ([]byte, error) {
	var rec []byte
	for {
		if n > maxRecord || len(rec)+int(n) > maxRecord {
			return rec, fmt.Errorf("sunrpc: record too large (%d bytes)", n)
		}
		old := len(rec)
		need := old + int(n)
		switch {
		case rec == nil:
			if alloc != nil {
				rec = alloc(need)
			} else {
				rec = make([]byte, need)
			}
		case cap(rec) >= need:
			rec = rec[:need]
		default:
			// Multi-fragment growth (rare: we always send single
			// fragments; other implementations may not).
			var nb []byte
			if alloc != nil {
				nb = alloc(need)
			} else {
				nb = make([]byte, need)
			}
			copy(nb, rec)
			if alloc != nil {
				bufpool.Put(rec)
			}
			rec = nb
		}
		if err := rr.readFull(rec[old:need]); err != nil {
			return rec, err
		}
		if last {
			return rec, nil
		}
		var err error
		if n, last, err = rr.mark(); err != nil {
			return rec, err
		}
	}
}

// authWireSize is the encoded size of an OpaqueAuth.
func authWireSize(a OpaqueAuth) int { return 8 + len(a.Body) + padTo4(len(a.Body)) }

// marshalCallRecord builds the record-marked wire form of a CALL into a
// bufpool buffer: a filled-in 4-byte record mark followed by the
// message, sized for a single conn.Write. The caller owns the buffer
// and must bufpool.Put it after its final write.
func marshalCallRecord(xid, prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte) []byte {
	need := 4 + 6*4 + authWireSize(cred) + authWireSize(verf) + len(args)
	b := xdr.Builder{B: bufpool.Get(need)[:4]}
	b.Uint32(xid)
	b.Uint32(msgCall)
	b.Uint32(rpcVersion)
	b.Uint32(prog)
	b.Uint32(vers)
	b.Uint32(proc)
	b.Uint32(cred.Flavor)
	b.Opaque(cred.Body)
	b.Uint32(verf.Flavor)
	b.Opaque(verf.Body)
	msg := append(b.B, args...)
	binary.BigEndian.PutUint32(msg[:4], uint32(len(msg)-4)|0x80000000)
	return msg
}

// appendAcceptedReply appends the header of an accepted REPLY, which the
// results follow.
func appendAcceptedReply(b *xdr.Builder, xid uint32, stat AcceptStat) {
	b.Uint32(xid)
	b.Uint32(msgReply)
	b.Uint32(replyAccepted)
	b.Uint32(AuthNone) // verifier flavor
	b.Uint32(0)        // verifier length
	b.Uint32(uint32(stat))
}

// Call describes a received RPC call as seen by a Server handler.
type Call struct {
	XID        uint32
	Prog, Vers uint32
	Proc       uint32
	Cred       OpaqueAuth
	Verf       OpaqueAuth
	Args       []byte // raw XDR-encoded procedure arguments
	RemoteAddr net.Addr

	// Deadline, when nonzero, is the absolute instant by which the
	// caller still cares about a reply. Dispatch layers (the proxy's
	// QoS admission) set it from the propagated trace-verifier budget
	// and use it to shed calls that have already expired. The
	// transport itself does not enforce it.
	Deadline time.Time

	// ReplyBuf, when set by the handler, is the bufpool buffer that owns
	// the returned results — the results slice itself, or a larger record
	// they alias (a relayed upstream reply). The server releases it once
	// the reply has been copied into the outgoing record; the handler
	// must not touch it after HandleCall returns.
	ReplyBuf []byte

	// rec is the pooled request record that Args, Cred.Body and Verf.Body
	// alias; release returns it.
	rec []byte
}

// Handler processes calls for one (program, version). Results must be
// the raw XDR-encoded reply body; stat reports the RPC accept state.
// Handlers are invoked concurrently.
//
// Ownership: the Call and everything it references (Args, Cred.Body,
// Verf.Body alias the pooled request record) are only valid until
// HandleCall returns. A handler that needs any of it afterwards —
// including in goroutines it spawns — must copy.
type Handler interface {
	HandleCall(c *Call) (results []byte, stat AcceptStat)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(c *Call) ([]byte, AcceptStat)

// HandleCall calls f(c).
func (f HandlerFunc) HandleCall(c *Call) ([]byte, AcceptStat) { return f(c) }

type progVers struct{ prog, vers uint32 }

// Server serves ONC RPC programs on a stream listener.
type Server struct {
	// handlers is replaced, never mutated, by Register, so dispatch reads
	// it without taking mu.
	handlers atomic.Pointer[map[progVers]Handler]

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool
	// readers counts the connections' readers running: each holds a
	// pooled buffer until it exits, and Close waits for them.
	readers sync.WaitGroup
}

// NewServer returns an empty Server; register programs before serving.
func NewServer() *Server {
	s := &Server{
		conns:     make(map[net.Conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
	s.handlers.Store(&map[progVers]Handler{})
	return s
}

// Register installs h as the handler for (prog, vers).
func (s *Server) Register(prog, vers uint32, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.handlers.Load()
	m := make(map[progVers]Handler, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[progVers{prog, vers}] = h
	s.handlers.Store(&m)
}

// Serve accepts connections from l until l is closed or Close is called.
// It always returns a non-nil error (net.ErrClosed after Close). The
// listener is adopted: Close closes it, so Serve cannot keep accepting
// (or stay blocked in Accept) on a closed server.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Close ran between Accept returning and this registration:
			// the connection must not outlive the server.
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.readers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.readers.Done()
			s.serveConn(conn)
		}()
	}
}

// Close terminates all active connections and adopted listeners. It is
// idempotent and safe to call concurrently with Serve. Every goroutine
// the server started exits: readers at once — Close returns once they
// have given their buffers back — and a worker as soon as the handler
// it is running returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := s.conns
	s.conns = make(map[net.Conn]struct{})
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for c := range conns {
		c.Close()
	}
	s.readers.Wait()
}

// acceptedReplyHdrMax bounds the accepted-reply header we emit: xid +
// msg type + reply stat + AUTH_NONE verifier (flavor, zero length) +
// accept stat = 6 words.
const acceptedReplyHdrMax = 24

// callPool recycles Call structs between requests: a Call lives from
// parse until its handler's results are framed into the reply, and
// handlers must not retain it.
var callPool = sync.Pool{New: func() any { return new(Call) }}

// release returns the call and the request record it aliases to their
// pools.
func (c *Call) release() {
	bufpool.Put(c.rec)
	*c = Call{}
	callPool.Put(c)
}

// maxIdleWorkers bounds the workers one connection keeps parked between
// calls. It does not bound concurrency: a call that finds no parked
// worker always gets a new one, and a worker that finishes with this
// many already parked exits instead of joining them.
const maxIdleWorkers = 32

// serverConn is one accepted connection: a reader (serveConn) that
// never runs a handler, and the workers that do. A worker is the
// goroutine behind a chan *Call; between calls it parks on that channel
// with its stack as the last handler grew it, which is what a goroutine
// per call paid for on every call.
type serverConn struct {
	s      *Server
	conn   net.Conn
	remote net.Addr
	wmu    chan struct{} // one slot: serializes record writes from concurrent workers, as Client.wmu

	mu     sync.Mutex
	idle   []chan *Call // parked workers, most recently parked last
	closed bool         // the reader has exited: workers exit instead of parking
}

func (s *Server) serveConn(conn net.Conn) {
	sc := &serverConn{s: s, conn: conn, remote: conn.RemoteAddr(), wmu: make(chan struct{}, 1)}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		sc.mu.Lock()
		sc.closed = true
		for _, w := range sc.idle {
			close(w)
		}
		sc.idle = nil
		sc.mu.Unlock()
	}()
	rr := newRecordReader(conn)
	defer rr.release()
	for {
		rec, err := rr.next(bufpool.Get)
		if err != nil {
			return
		}
		call, err := parseCall(rec)
		if err != nil {
			bufpool.Put(rec)
			return // malformed stream: drop connection
		}
		call.RemoteAddr = sc.remote
		sc.dispatch(call)
	}
}

// dispatch hands call to the most recently parked worker, or to a new
// one when none is parked. It never blocks: a worker's channel has room
// for one call and a parked worker's is empty.
func (sc *serverConn) dispatch(call *Call) {
	sc.mu.Lock()
	if n := len(sc.idle); n > 0 {
		w := sc.idle[n-1]
		sc.idle = sc.idle[:n-1]
		sc.mu.Unlock()
		w <- call
		return
	}
	sc.mu.Unlock()
	w := make(chan *Call, 1)
	w <- call
	go sc.work(w)
}

// work serves the calls sent on w, parking on it in between, until the
// connection's reader has exited.
func (sc *serverConn) work(w chan *Call) {
	for call := range w {
		sc.serve(call)
		sc.mu.Lock()
		if sc.closed || len(sc.idle) >= maxIdleWorkers {
			sc.mu.Unlock()
			return
		}
		sc.idle = append(sc.idle, w)
		sc.mu.Unlock()
	}
}

// serve runs the handler for one call, writes the reply and releases the
// call, its request record, the handler's pooled results and the reply.
func (sc *serverConn) serve(call *Call) {
	var results []byte
	stat := ProgUnavail
	if h, ok := (*sc.s.handlers.Load())[progVers{call.Prog, call.Vers}]; ok {
		results, stat = h.HandleCall(call)
	}
	// Build record mark + reply header + results in one pooled buffer so
	// the message leaves in a single Write and the handler's pooled
	// results can be released immediately after the copy.
	reply := bufpool.Get(4 + acceptedReplyHdrMax + len(results))[:4]
	b := xdr.Builder{B: reply}
	appendAcceptedReply(&b, call.XID, stat)
	reply = append(b.B, results...)
	bufpool.Put(call.ReplyBuf)
	call.release()
	binary.BigEndian.PutUint32(reply[:4], uint32(len(reply)-4)|0x80000000)
	sc.wmu <- struct{}{}
	_, werr := sc.conn.Write(reply)
	<-sc.wmu
	bufpool.Put(reply)
	if werr != nil {
		sc.conn.Close()
	}
}

// parseCall decodes a CALL record. The returned Call comes from
// callPool, owns rec, and its Cred/Verf bodies and Args alias it:
// Call.release returns both. On error rec stays the caller's.
func parseCall(rec []byte) (*Call, error) {
	var d xdr.Decoder
	d.ResetBytes(rec)
	c := callPool.Get().(*Call)
	*c = Call{}
	c.XID = d.Uint32()
	if mt := d.Uint32(); mt != msgCall {
		callPool.Put(c)
		return nil, fmt.Errorf("sunrpc: unexpected message type %d", mt)
	}
	if rv := d.Uint32(); rv != rpcVersion {
		callPool.Put(c)
		return nil, fmt.Errorf("sunrpc: unsupported RPC version %d", rv)
	}
	c.Prog = d.Uint32()
	c.Vers = d.Uint32()
	c.Proc = d.Uint32()
	c.Cred = OpaqueAuth{Flavor: d.Uint32(), Body: d.OpaqueRef()}
	c.Verf = OpaqueAuth{Flavor: d.Uint32(), Body: d.OpaqueRef()}
	if err := d.Err(); err != nil {
		callPool.Put(c)
		return nil, err
	}
	c.Args = d.Rest()
	c.rec = rec
	return c, nil
}

func padTo4(n int) int {
	if r := n % 4; r != 0 {
		return 4 - r
	}
	return 0
}

// The Client implementation (per-call deadlines, reconnect with
// backoff, XID-based retransmission of idempotent calls) lives in
// client.go.
