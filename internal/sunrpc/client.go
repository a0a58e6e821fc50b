package sunrpc

// Fault-tolerant RPC client: per-call deadlines, transparent reconnect
// with exponential backoff and jitter, and XID-based retransmission of
// idempotent calls. A WAN session (the paper's Abilene path) stalls,
// flaps and drops; the NFS session layered on this client must absorb
// those transients instead of dying with the first TCP connection.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/bufpool"
	"gvfs/internal/simnet"
	"gvfs/internal/xdr"
)

// ErrClientClosed is returned by Call after the client is closed or its
// connection fails (with no reconnect configured).
var ErrClientClosed = errors.New("sunrpc: client closed")

// ErrCallTimeout reports that a call's per-call deadline expired before
// a reply arrived.
var ErrCallTimeout = errors.New("sunrpc: call timed out")

// ErrRetriesExhausted is the terminal error after every retransmission
// attempt of an idempotent call has failed.
var ErrRetriesExhausted = errors.New("sunrpc: retries exhausted")

// RPCError reports a non-SUCCESS accept state from the server.
type RPCError struct {
	Stat AcceptStat
}

func (e *RPCError) Error() string { return "sunrpc: call failed: " + e.Stat.String() }

// ClientOptions tune the client's fault-tolerance behavior. The zero
// value reproduces the plain single-connection client: no deadline, no
// reconnect, no retransmission.
type ClientOptions struct {
	// CallTimeout bounds each call attempt. While a call is in flight
	// the connection carries a matching write deadline, and the reply
	// wait is cut off after this duration. Zero means wait forever.
	CallTimeout time.Duration

	// Redial re-establishes the transport after a connection failure.
	// When nil the client is single-shot: a dead connection fails all
	// current and future calls, as before.
	Redial func() (net.Conn, error)

	// MaxRetries is the number of retransmission attempts after the
	// first try. Zero means none: with Redial set the client still
	// reconnects, on the next call, but never retransmits inside one —
	// for a caller that owns the retry itself (a replica set fails over
	// instead).
	MaxRetries int

	// BackoffBase and BackoffMax bound the exponential backoff between
	// attempts (defaults 20ms and 2s). Each wait is jittered to half
	// its nominal value at minimum.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Idempotent reports whether a procedure is safe to retransmit
	// after an ambiguous failure (the call may have executed). Calls
	// for which it returns false are retried only when the failure
	// provably precedes transmission (e.g. a failed dial). Nil means
	// nothing is idempotent.
	Idempotent func(prog, vers, proc uint32) bool
}

const (
	defaultBackoffBase = 20 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
)

// TransportStats counts client fault-handling activity.
type TransportStats struct {
	Retries    uint64 // retransmission attempts (beyond first tries)
	Reconnects uint64 // successful redials
	Timeouts   uint64 // per-call deadline expiries
}

// Client issues RPC calls over a stream connection. It is safe for
// concurrent use: calls are multiplexed by XID. With ClientOptions it
// survives connection failures by reconnecting and retransmitting
// idempotent calls under their original XIDs.
type Client struct {
	opts ClientOptions

	wmu  chan struct{} // one slot: serializes record writes; a waiter blocks durably (package simnet)
	born uint64        // when the client was made (UnixNano): seeds the backoff jitter

	mu      sync.Mutex
	cond    *sync.Cond // signals redial completion
	conn    net.Conn   // nil while down
	gen     int        // bumped per established connection
	dialing bool
	closed  bool
	lastErr error // last transport error, for the no-redial path
	nextXID uint32
	pending map[uint32]waiter
	free    []chan clientReply // reply channels of ended calls, for the next
	done    chan struct{}
	// readers counts the read loops running: each holds a pooled buffer
	// until it exits, and Close waits for them, so that a closed Client
	// holds nothing of the pool's.
	readers sync.WaitGroup

	retries    atomic.Uint64
	reconnects atomic.Uint64
	timeouts   atomic.Uint64
}

// waiter is a call registered under its XID: where its reply goes and,
// fixed for the call's life, who owns the reply's record — the caller,
// who takes it with the results and releases it (pooled: CallPooled), or
// the GC, because the caller keeps the results.
type waiter struct {
	ch     chan clientReply
	pooled bool
}

type clientReply struct {
	results []byte
	rec     []byte // the bufpool record results alias, the receiver's to release; nil when GC-owned
	err     error  // the server's verdict (*RPCError, denied) or, with transport set, the connection's
	// transport marks err as a connection-level failure (the call may
	// be retransmitted) rather than a server verdict.
	transport bool
}

// replyChanLocked returns a one-slot channel for a call to wait on, from
// the client's free list. The list is the client's own, not a package
// pool, so a channel never passes between clients: one made inside a
// testing/synctest bubble stays there, and one made outside never
// enters.
func (c *Client) replyChanLocked() chan clientReply {
	if n := len(c.free); n > 0 {
		ch := c.free[n-1]
		c.free = c.free[:n-1]
		return ch
	}
	return make(chan clientReply, 1)
}

// unregister ends a call and puts its channel back on the free list. One
// rule keeps a recycled channel from carrying another call's reply:
// every send happens with c.mu held on a channel just found in c.pending
// (readLoop, failPendingLocked), and unregister, under c.mu too, removes
// the XID, then drains, then recycles. After the removal no sender can
// find the channel, so a late or duplicate reply is dropped, not
// delivered to whoever holds the channel next. The same rule gives a
// pooled record one owner: sent, it is the receiver's; not sent,
// readLoop's; drained here, unregister's.
func (c *Client) unregister(xid uint32, ch chan clientReply) {
	c.mu.Lock()
	delete(c.pending, xid)
	select {
	case rep := <-ch:
		bufpool.Put(rep.rec)
	default:
	}
	c.free = append(c.free, ch)
	c.mu.Unlock()
}

// NewClient wraps an established connection with default (no-retry)
// options.
func NewClient(conn net.Conn) *Client {
	return NewClientWithOptions(conn, ClientOptions{})
}

// NewClientWithOptions wraps an established connection.
func NewClientWithOptions(conn net.Conn, opts ClientOptions) *Client {
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = defaultBackoffBase
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = defaultBackoffMax
	}
	c := &Client{
		opts:    opts,
		wmu:     make(chan struct{}, 1),
		born:    uint64(time.Now().UnixNano()),
		conn:    conn,
		gen:     1,
		nextXID: 1,
		pending: make(map[uint32]waiter),
		done:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.readers.Add(1)
	go c.readLoop(conn, 1)
	return c
}

// Dial connects to addr (see DialWithOptions) and returns a Client.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, ClientOptions{})
}

// DialWithOptions connects to addr with the given options: over TCP, or
// to a pipe:N name on simnet's in-memory network (see simnet.Dial). Set
// opts.Redial to enable reconnection; it is not defaulted here.
func DialWithOptions(addr string, opts ClientOptions) (*Client, error) {
	conn, err := simnet.Dial(addr, nil)
	if err != nil {
		return nil, err
	}
	return NewClientWithOptions(conn, opts), nil
}

// Close tears down the connection; outstanding calls fail and no
// reconnect is attempted. It returns once the connection's reader has
// given its buffer back. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	conn := c.conn
	c.conn = nil
	c.failPendingLocked(ErrClientClosed)
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.readers.Wait()
	return err
}

// TransportStats returns a snapshot of the fault-handling counters.
func (c *Client) TransportStats() TransportStats {
	return TransportStats{
		Retries:    c.retries.Load(),
		Reconnects: c.reconnects.Load(),
		Timeouts:   c.timeouts.Load(),
	}
}

// failPendingLocked pushes err to every pending call without removing
// the registrations: a retransmitting call keeps its XID so a reply on
// a later connection still matches.
func (c *Client) failPendingLocked(err error) {
	for _, w := range c.pending {
		select {
		case w.ch <- clientReply{err: err, transport: true}:
		default:
		}
	}
}

// connDown records the death of a specific connection generation. A
// stale generation's error (late readLoop exit after a reconnect) is
// ignored.
func (c *Client) connDown(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.lastErr = fmt.Errorf("%w: %v", ErrClientClosed, err)
	c.failPendingLocked(c.lastErr)
}

// readReply reads one reply record for readLoop. Whoever waits for the
// XID decides the allocator: a right-sized GC record for a caller that
// keeps the results, a bufpool one for a caller that releases it — and
// for a reply nobody waits for, which readLoop then releases. The choice
// is only an economy: a pooled record handed to a keeping caller, or the
// reverse, is never released and so never reused under anyone.
func (c *Client) readReply(rr *recordReader) (rec []byte, pooled bool, err error) {
	n, last, err := rr.mark()
	if err != nil {
		return nil, false, err
	}
	var alloc func(int) []byte
	// A first fragment too short for the XID gets a GC record, whoever
	// waits. No peer of ours sends one.
	if n >= 4 {
		if err := rr.fill(4); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		w, waited := c.pending[binary.BigEndian.Uint32(rr.buf[rr.r:])]
		c.mu.Unlock()
		if pooled = !waited || w.pooled; pooled {
			alloc = bufpool.Get
		}
	}
	if rec, err = rr.body(n, last, alloc); err != nil {
		bufpool.Put(rec) // whichever allocator it came from: nobody else holds it
		return nil, false, err
	}
	return rec, pooled, nil
}

func (c *Client) readLoop(conn net.Conn, gen int) {
	defer c.readers.Done()
	rr := newRecordReader(conn)
	defer rr.release()
	for {
		rec, pooled, err := c.readReply(rr)
		if err != nil {
			c.connDown(gen, err)
			return
		}
		var d xdr.Decoder
		d.ResetBytes(rec)
		xid := d.Uint32()
		mt := d.Uint32()
		rstat := d.Uint32()
		if d.Err() != nil || mt != msgReply {
			c.connDown(gen, errors.New("malformed reply"))
			return
		}
		var rep clientReply
		if rstat == replyDenied {
			rep.err = errors.New("sunrpc: call denied by server")
		} else {
			d.Uint32()    // verifier flavor
			d.OpaqueRef() // verifier body (unused)
			stat := AcceptStat(d.Uint32())
			if err := d.Err(); err != nil {
				c.connDown(gen, err)
				return
			}
			if stat != Success {
				rep.err = &RPCError{Stat: stat}
			} else if rep.results = rec[d.Pos():]; pooled {
				rep.rec = rec
			}
		}
		sent := false
		c.mu.Lock()
		if w, ok := c.pending[xid]; ok {
			// Non-blocking: a duplicate reply (retransmission answered
			// twice) is dropped rather than wedging the read loop. Under
			// c.mu so the channel cannot be recycled between lookup and
			// send (see unregister).
			select {
			case w.ch <- rep:
				sent = true
			default:
			}
		}
		c.mu.Unlock()
		if pooled && (!sent || rep.rec == nil) {
			bufpool.Put(rec) // late, duplicate or an error: no caller took it
		}
	}
}

// ensureConn returns a live connection, redialing if configured. The
// caller is responsible for backoff between attempts.
func (c *Client) ensureConn() (net.Conn, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, 0, ErrClientClosed
		}
		if c.conn != nil {
			return c.conn, c.gen, nil
		}
		if c.opts.Redial == nil {
			err := c.lastErr
			if err == nil {
				err = ErrClientClosed
			}
			return nil, 0, err
		}
		if c.dialing {
			c.cond.Wait()
			continue
		}
		c.dialing = true
		c.mu.Unlock()
		conn, err := c.opts.Redial()
		c.mu.Lock()
		c.dialing = false
		c.cond.Broadcast()
		if err != nil {
			c.lastErr = fmt.Errorf("%w: redial: %v", ErrClientClosed, err)
			return nil, 0, err
		}
		if c.closed {
			conn.Close()
			return nil, 0, ErrClientClosed
		}
		c.gen++
		c.conn = conn
		c.reconnects.Add(1)
		c.readers.Add(1)
		go c.readLoop(conn, c.gen)
		return c.conn, c.gen, nil
	}
}

// backoffDelay returns the jittered exponential delay of call xid's
// retry ordinal attempt.
func (c *Client) backoffDelay(xid uint32, attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Jitter to [d/2, d] so parallel retransmitters decorrelate: a
	// splitmix64 hash of the client's birth, the XID and the attempt, so
	// calls share no state, and clients made at one instant of a bubble's
	// clock back off alike.
	x := c.born ^ uint64(xid)<<32 ^ uint64(attempt) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return d/2 + time.Duration((x^x>>31)%(uint64(d/2)+1))
}

// sleep waits for d, aborting early if the client closes.
func (c *Client) sleep(d time.Duration) {
	select {
	case <-time.After(d):
	case <-c.done:
	}
}

// retriesEnabled reports whether the retry loop applies at all.
func (c *Client) retriesEnabled() bool {
	return c.opts.Redial != nil || c.opts.CallTimeout > 0
}

// Call issues one RPC and waits for its reply. On a non-SUCCESS accept
// state it returns an *RPCError. With retry options set, transport
// failures of idempotent calls are retransmitted (same XID) across
// reconnects until MaxRetries is exhausted, then reported as
// ErrRetriesExhausted wrapping the last cause.
func (c *Client) Call(prog, vers, proc uint32, cred OpaqueAuth, args []byte) ([]byte, error) {
	return c.CallVerf(prog, vers, proc, cred, AuthNoneCred, args)
}

// CallVerf is Call with an explicit call verifier — the header
// extension slot proxies use to propagate trace contexts (see
// TraceContext). The verifier rides every retransmission of the call
// unchanged.
func (c *Client) CallVerf(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte) ([]byte, error) {
	res, _, err := c.call(prog, vers, proc, cred, verf, args, time.Time{}, false)
	return res, err
}

// CallPooled is CallVerf bounded by an absolute deadline, for a caller
// that consumes the reply and is done with it. The retry loop never
// sleeps a backoff it cannot recover from: once the deadline cannot be
// met before the next attempt could complete, the call fails promptly
// with an error satisfying errors.Is(err, context.DeadlineExceeded). Each
// attempt's reply wait is additionally capped at the remaining budget, so
// a stalled connection cannot hold the call past its deadline either. A
// zero deadline is none.
//
// results alias rec, a bufpool record that is the caller's to bufpool.Put
// once it has copied or decoded what it needs. Not releasing is legal (the
// GC takes it, and results are then the caller's to keep); releasing
// twice, or using results afterwards, is the bug. rec is nil on error and
// may be nil on success. It implements PooledCaller.
func (c *Client) CallPooled(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte, deadline time.Time) (results, rec []byte, err error) {
	return c.call(prog, vers, proc, cred, verf, args, deadline, true)
}

func (c *Client) call(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte, deadline time.Time, pooled bool) (results, rec []byte, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClientClosed
	}
	xid := c.nextXID
	c.nextXID++
	ch := c.replyChanLocked()
	c.pending[xid] = waiter{ch, pooled}
	c.mu.Unlock()
	defer c.unregister(xid, ch)

	// The record-marked message lives in a pooled buffer for the whole
	// retry loop (retransmissions reuse it verbatim); every write path
	// below is synchronous, so the deferred release cannot race a send.
	msg := marshalCallRecord(xid, prog, vers, proc, cred, verf, args)
	defer bufpool.Put(msg)
	idempotent := c.opts.Idempotent != nil && c.opts.Idempotent(prog, vers, proc)
	attempts := 1
	if c.retriesEnabled() {
		attempts = 1 + c.opts.MaxRetries
	}

	var lastErr error
	timedOutGen := -1 // connection generation already charged one timeout
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := c.backoffDelay(xid, attempt-1)
			if !deadline.IsZero() && !time.Now().Add(d).Before(deadline) {
				// Sleeping this backoff would overrun the deadline, so
				// no further attempt can be answered in time. One last
				// non-blocking check for a reply that already landed,
				// then fail promptly instead of burning the caller's
				// budget on dead retransmissions.
				select {
				case rep := <-ch:
					if !rep.transport {
						return rep.results, rep.rec, rep.err
					}
				default:
				}
				return nil, nil, fmt.Errorf("%w: retry backoff overruns deadline (last: %v)",
					context.DeadlineExceeded, lastErr)
			}
			c.retries.Add(1)
			c.sleep(d)
			// A reply may have landed during the backoff (the call was
			// merely delayed): complete with it. A buffered transport
			// error from the previous attempt is stale — discard it so
			// it is not mistaken for this attempt's outcome.
			select {
			case rep := <-ch:
				if !rep.transport {
					return rep.results, rep.rec, rep.err
				}
			default:
			}
		}
		conn, gen, err := c.ensureConn()
		if err != nil {
			if errors.Is(err, ErrClientClosed) && c.opts.Redial == nil {
				return nil, nil, err
			}
			// Nothing was transmitted: safe to retry regardless of
			// idempotence.
			lastErr = err
			continue
		}

		c.wmu <- struct{}{}
		if c.opts.CallTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(c.opts.CallTimeout))
		}
		_, werr := conn.Write(msg)
		if c.opts.CallTimeout > 0 {
			conn.SetWriteDeadline(time.Time{})
		}
		<-c.wmu
		if werr != nil {
			c.connDown(gen, werr)
			lastErr = fmt.Errorf("%w: %v", ErrClientClosed, werr)
			if !idempotent || c.opts.Redial == nil {
				return nil, nil, lastErr
			}
			continue
		}

		// Each attempt waits at most CallTimeout, further capped at the
		// remaining deadline budget so a stalled connection cannot hold
		// the call past its deadline.
		attemptTimeout := c.opts.CallTimeout
		deadlineBound := false
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				return nil, nil, fmt.Errorf("%w (xid %d, prog %d proc %d)",
					context.DeadlineExceeded, xid, prog, proc)
			}
			if attemptTimeout <= 0 || rem < attemptTimeout {
				attemptTimeout = rem
				deadlineBound = true
			}
		}
		var timeout <-chan time.Time
		var timer *time.Timer
		if attemptTimeout > 0 {
			timer = time.NewTimer(attemptTimeout)
			timeout = timer.C
		}
		select {
		case rep := <-ch:
			if timer != nil {
				timer.Stop()
			}
			if rep.transport && idempotent && c.opts.Redial != nil {
				lastErr = rep.err
				continue
			}
			return rep.results, rep.rec, rep.err
		case <-timeout:
			c.timeouts.Add(1)
			if deadlineBound {
				return nil, nil, fmt.Errorf("%w after %v (xid %d, prog %d proc %d)",
					context.DeadlineExceeded, attemptTimeout, xid, prog, proc)
			}
			lastErr = fmt.Errorf("%w after %v (xid %d, prog %d proc %d)",
				ErrCallTimeout, c.opts.CallTimeout, xid, prog, proc)
			if !idempotent {
				return nil, nil, lastErr
			}
			// Retransmit under the same XID: if the original call (or
			// its reply) was merely delayed, the late reply still
			// completes this call. A second expiry on the same
			// connection suggests a wedged or desynchronized stream —
			// sever it so the next attempt starts on a fresh one.
			if c.opts.Redial != nil {
				if gen == timedOutGen {
					c.connDown(gen, lastErr)
				} else {
					timedOutGen = gen
				}
			}
			continue
		}
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}
