// Package simnet emulates wide-area and local-area network links on
// top of TCP connections or of its own in-memory network (Listen on
// "pipe:"). It stands in for the paper's physical networks: the
// 100 Mbit/s campus Ethernet between compute and LAN image servers, and
// the Abilene path between the University of Florida and Northwestern
// University for the WAN image server.
//
// A Link applies one-way propagation delay and token-bucket bandwidth
// shaping to every byte that crosses it, and accounts traffic so
// experiments can report wire bytes alongside wall time. Shaping is
// enforced with real sleeps, so measured wall-clock durations include
// the same latency·RPC-count and bytes/bandwidth terms that dominate
// the paper's results. Inside a testing/synctest bubble those sleeps
// take virtual time, so a chain on pipes runs a WAN at CPU speed, as long
// as a goroutine that waits on link time holds no sync.Mutex another
// waits on: a mutex wait is not a durable block, so the clock would never
// move. Writers that serialize across a Write take a one-slot channel.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a link's characteristics.
type Profile struct {
	// Name labels the profile in reports ("LAN", "WAN", ...).
	Name string
	// RTT is the round-trip propagation delay; each direction of a
	// Link adds RTT/2 to the delivery time of every byte.
	RTT time.Duration
	// Bandwidth is the link rate in bytes per second (0 = unlimited).
	Bandwidth float64
	// Scale divides both RTT and per-byte cost, letting full-size
	// experiments run quickly while preserving every ratio. Zero or
	// one means unscaled.
	Scale float64
}

func (p Profile) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// OneWayDelay returns the effective one-way propagation delay.
func (p Profile) OneWayDelay() time.Duration {
	return time.Duration(float64(p.RTT) / 2 / p.scale())
}

// TransmitTime returns the serialization time for n bytes.
func (p Profile) TransmitTime(n int) time.Duration {
	if p.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / (p.Bandwidth * p.scale()) * float64(time.Second))
}

// Local is an unconstrained profile (same-host disk-backed access).
func Local() Profile { return Profile{Name: "Local"} }

// LAN models the paper's 100 Mbit/s campus Ethernet.
func LAN() Profile {
	return Profile{Name: "LAN", RTT: 200 * time.Microsecond, Bandwidth: 12.5e6}
}

// WAN models the Abilene path used in the paper, calibrated so that
// full-image SCP (~1.9 GB in 1127 s) and block-by-block NFS reads of a
// 320 MB memory state (~2060 s at 8 KB per 30 ms round trip) match the
// reported baselines.
func WAN() Profile {
	return Profile{Name: "WAN", RTT: 30 * time.Millisecond, Bandwidth: 1.75e6}
}

// Stats accumulates traffic counters for one direction of a link.
type Stats struct {
	Bytes    atomic.Uint64
	Messages atomic.Uint64
}

// LinkStats reports both directions of a link.
type LinkStats struct {
	Sent, Received uint64
}

// shaper meters bytes through a token bucket at the profile rate and
// computes each message's delivery time (serialization plus
// propagation). One shaper per direction serializes concurrent
// writers, modelling a shared physical link — this is what makes eight
// parallel clonings contend for the image server's uplink in the WAN-P
// experiment.
type shaper struct {
	p  Profile
	mu sync.Mutex
	// nextFree is when the link is next idle (token-bucket horizon).
	nextFree time.Time
}

// schedule accounts n bytes on the link. It returns how long the
// sender must stall for serialization back-pressure and the absolute
// time at which the bytes arrive at the far end. Senders do NOT wait
// out the propagation delay — messages pipeline on the wire, as on a
// real network.
func (s *shaper) schedule(n int) (stall time.Duration, deliverAt time.Time) {
	now := time.Now()
	if s.p.RTT == 0 && s.p.Bandwidth <= 0 {
		return 0, now
	}
	tx := s.p.TransmitTime(n)
	s.mu.Lock()
	if s.nextFree.Before(now) {
		s.nextFree = now
	}
	s.nextFree = s.nextFree.Add(tx)
	deliverAt = s.nextFree.Add(s.p.OneWayDelay())
	stall = s.nextFree.Sub(now)
	s.mu.Unlock()
	return stall, deliverAt
}

// delivery is one in-flight message.
type delivery struct {
	data []byte
	at   time.Time
}

// Conn wraps a net.Conn with link emulation. Writes stall only for
// serialization (bandwidth back-pressure); a delivery goroutine
// forwards each message to the underlying connection once its
// propagation delay has elapsed, so independent messages pipeline.
type Conn struct {
	net.Conn
	out   *shaper
	stats *Stats
	link  *Link // for fault injection; nil only in tests

	ch   chan delivery
	done chan struct{} // closed by Close: no lock is held to wait on ch

	mu     sync.Mutex
	closed bool
	werr   error
}

func newConn(raw net.Conn, out *shaper, stats *Stats, link *Link) *Conn {
	c := &Conn{Conn: raw, out: out, stats: stats, link: link, ch: make(chan delivery, 1024), done: make(chan struct{})}
	if link != nil {
		link.addConn(c)
	}
	go c.deliverLoop()
	return c
}

func (c *Conn) deliverLoop() {
	var err error // once a write fails, the rest are drained so writers never block for good
	for {
		var d delivery
		select {
		case d = <-c.ch:
		case <-c.done:
			return
		}
		if err != nil {
			continue
		}
		time.Sleep(time.Until(d.at))
		if c.link != nil {
			// A stall injected after this message was scheduled still
			// freezes it on the wire until the stall lifts.
			time.Sleep(time.Until(c.link.stallDeadline()))
		}
		if _, err = c.Conn.Write(d.data); err != nil {
			c.mu.Lock()
			c.werr = err
			c.mu.Unlock()
		}
	}
}

// Write shapes and forwards p. The data is copied; delivery happens
// asynchronously after the link's propagation delay.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	if c.werr != nil {
		err := c.werr
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()
	if c.link != nil && c.link.loseMessage() {
		// Lost on the wire: the sender sees a normal local write (as
		// with a real TCP segment dropped past the NIC); the far end
		// simply never receives it.
		c.stats.Bytes.Add(uint64(len(p)))
		c.stats.Messages.Add(1)
		return len(p), nil
	}
	stall, at := c.out.schedule(len(p))
	if c.link != nil {
		if until := c.link.stallDeadline(); at.Before(until) {
			at = until
		}
	}
	c.stats.Bytes.Add(uint64(len(p)))
	c.stats.Messages.Add(1)
	buf := make([]byte, len(p))
	copy(buf, p)
	if stall > 0 {
		time.Sleep(stall)
	}
	select {
	case c.ch <- delivery{data: buf, at: at}:
		return len(p), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

// Close stops deliveries and closes the underlying connection. Any
// messages still "on the wire" are dropped, as when a host fails.
func (c *Conn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	if c.link != nil {
		c.link.removeConn(c)
	}
	return c.Conn.Close()
}

// Link emulates a bidirectional network path. Both directions share
// the profile but have independent token buckets, as with full-duplex
// links. Fault injection — message loss, stalls, partitions and
// connection kills — applies to both directions; see Drop, Stall,
// Partition and SetLoss.
type Link struct {
	p         Profile
	up, down  shaper // up: client→server, down: server→client
	upStats   Stats
	downStats Stats

	dropped atomic.Uint64 // messages lost to faults

	fmu         sync.Mutex
	partitioned bool
	stallUntil  time.Time
	lossRate    float64
	rng         *rand.Rand // nil until SetLoss; seeded for determinism
	conns       map[*Conn]struct{}
}

// NewLink returns a Link with the given profile.
func NewLink(p Profile) *Link {
	return &Link{p: p, up: shaper{p: p}, down: shaper{p: p},
		conns: make(map[*Conn]struct{})}
}

// --- fault injection -------------------------------------------------
//
// These model the WAN failure modes a long-lived GVFS session must
// survive: flapping TCP connections (Drop/Flap), routing stalls
// (Stall), hard partitions (Partition/Heal) and random message loss
// (SetLoss). All methods are safe for concurrent use with traffic.

func (l *Link) addConn(c *Conn) {
	l.fmu.Lock()
	l.conns[c] = struct{}{}
	l.fmu.Unlock()
}

func (l *Link) removeConn(c *Conn) {
	l.fmu.Lock()
	delete(l.conns, c)
	l.fmu.Unlock()
}

// Drop kills every connection currently traversing the link, as when a
// NAT entry expires or a stateful middlebox reboots. New connections
// (and redials) succeed immediately.
func (l *Link) Drop() {
	l.fmu.Lock()
	conns := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.fmu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Flap kills all connections n times, gap apart — a flapping path.
// It blocks for n*gap; run it from a goroutine to flap mid-transfer.
func (l *Link) Flap(n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		l.Drop()
		time.Sleep(gap)
	}
}

// Stall freezes delivery in both directions for d: messages written
// (or still on the wire) during the stall arrive only after it lifts.
// Connections stay up — the paper's long-haul path hiccup.
func (l *Link) Stall(d time.Duration) {
	l.fmu.Lock()
	if until := time.Now().Add(d); until.After(l.stallUntil) {
		l.stallUntil = until
	}
	l.fmu.Unlock()
}

func (l *Link) stallDeadline() time.Time {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.stallUntil
}

// Partition black-holes the link: every message in either direction is
// silently lost and new Dials through the link fail, while established
// connections stay "up" from the endpoints' perspective — exactly the
// failure a per-call deadline exists to detect. Heal ends it.
func (l *Link) Partition() {
	l.fmu.Lock()
	l.partitioned = true
	l.fmu.Unlock()
}

// Heal ends a partition.
func (l *Link) Heal() {
	l.fmu.Lock()
	l.partitioned = false
	l.fmu.Unlock()
}

// Partitioned reports whether the link is currently partitioned.
func (l *Link) Partitioned() bool {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.partitioned
}

// SetLoss drops each message crossing the link with probability rate,
// using a deterministic seeded source so chaos runs are reproducible.
// Rate 0 disables loss.
func (l *Link) SetLoss(rate float64, seed int64) {
	l.fmu.Lock()
	l.lossRate = rate
	if rate > 0 {
		l.rng = rand.New(rand.NewSource(seed))
	} else {
		l.rng = nil
	}
	l.fmu.Unlock()
}

// loseMessage decides the fate of one message under the current faults.
func (l *Link) loseMessage() bool {
	l.fmu.Lock()
	lost := l.partitioned || (l.rng != nil && l.rng.Float64() < l.lossRate)
	l.fmu.Unlock()
	if lost {
		l.dropped.Add(1)
	}
	return lost
}

// DroppedMessages returns the number of messages lost to injected
// faults (loss and partitions; messages cut off by Drop not included).
func (l *Link) DroppedMessages() uint64 { return l.dropped.Load() }

// Profile returns the link's profile.
func (l *Link) Profile() Profile { return l.p }

// Stats returns cumulative traffic counts: bytes sent client→server
// and server→client.
func (l *Link) Stats() LinkStats {
	return LinkStats{Sent: l.upStats.Bytes.Load(), Received: l.downStats.Bytes.Load()}
}

// ResetStats zeroes the traffic counters.
func (l *Link) ResetStats() {
	l.upStats.Bytes.Store(0)
	l.upStats.Messages.Store(0)
	l.downStats.Bytes.Store(0)
	l.downStats.Messages.Store(0)
}

// ClientConn wraps the client side of conn: writes traverse the uplink.
func (l *Link) ClientConn(conn net.Conn) net.Conn {
	return newConn(conn, &l.up, &l.upStats, l)
}

// ServerConn wraps the server side of conn: writes traverse the downlink.
func (l *Link) ServerConn(conn net.Conn) net.Conn {
	return newConn(conn, &l.down, &l.downStats, l)
}

// Listener wraps an accept loop so that every accepted connection is
// shaped by the link's downlink (server writes).
type Listener struct {
	net.Listener
	link *Link
}

// Listen starts a listener on addr. An address "pipe:" opens one on the
// in-memory network under a fresh name, pipe:N (see Addr); any other
// address is a TCP listener. With a link, every accepted connection is
// shaped by it; with a nil link the listener is returned unwrapped.
func Listen(addr string, link *Link) (net.Listener, error) {
	var l net.Listener
	if addr == pipePrefix {
		l = listenPipe()
	} else {
		var err error
		if l, err = net.Listen("tcp", addr); err != nil {
			return nil, err
		}
	}
	if link == nil {
		return l, nil
	}
	return &Listener{Listener: l, link: link}, nil
}

// Accept returns the next shaped connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.link.ServerConn(conn), nil
}

// checkDial refuses a dial through a partitioned link, as a lost SYN
// would.
func (l *Link) checkDial() error {
	if l.Partitioned() {
		return fmt.Errorf("simnet: %s link partitioned", l.p.Name)
	}
	return nil
}

// Dial connects to addr: a pipe:N name on the in-memory network, any
// other address over TCP. With a link, the connection's writes cross its
// uplink, and a partitioned link refuses the dial; with a nil link the
// connection is returned unwrapped.
func Dial(addr string, link *Link) (net.Conn, error) {
	if link != nil {
		if err := link.checkDial(); err != nil {
			return nil, err
		}
	}
	var conn net.Conn
	var err error
	if strings.HasPrefix(addr, pipePrefix) {
		conn, err = dialPipe(addr)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil || link == nil {
		return conn, err
	}
	return link.ClientConn(conn), nil
}

// --- the in-memory network -------------------------------------------
//
// A listener on "pipe:" gets the next name, pipe:N, and a dial to that
// name hands the listener one end of a net.Pipe and the dialer the other.
// Nothing leaves the process and nothing waits on the kernel, so a chain
// built on pipes runs inside a testing/synctest bubble: every wait in it
// is on a channel, a timer or a sleep.

// pipePrefix is the address prefix of the in-memory network.
const pipePrefix = "pipe:"

// pipeBacklog bounds the dialed connections a pipe listener holds that
// its owner has not accepted yet; a dial beyond it is refused, as by a
// full accept queue. A dial never waits for Accept, as a TCP connect
// does not, and 256 is more than any chain dials at once.
const pipeBacklog = 256

// pipeNet is the registry of open pipe listeners by name.
var pipeNet = struct {
	sync.Mutex
	next      int
	listeners map[string]*pipeListener
}{listeners: make(map[string]*pipeListener)}

// pipeAddr is a name on the in-memory network: pipe:N for a listener,
// pipe:N.K for the K-th connection dialed to it.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// pipeConn is one end of a dialed pipe, with the names of its ends.
type pipeConn struct {
	net.Conn
	local, remote pipeAddr
}

func (c *pipeConn) LocalAddr() net.Addr  { return c.local }
func (c *pipeConn) RemoteAddr() net.Addr { return c.remote }

type pipeListener struct {
	addr   pipeAddr
	conns  chan net.Conn // dialed, not yet accepted
	done   chan struct{} // closed by Close
	dialed int           // connections dialed so far; under pipeNet
}

func listenPipe() *pipeListener {
	pipeNet.Lock()
	defer pipeNet.Unlock()
	pipeNet.next++
	l := &pipeListener{
		addr:  pipeAddr(fmt.Sprintf("%s%d", pipePrefix, pipeNet.next)),
		conns: make(chan net.Conn, pipeBacklog),
		done:  make(chan struct{}),
	}
	pipeNet.listeners[string(l.addr)] = l
	return l
}

// dialPipe connects to the pipe listener named addr. A name nobody
// listens on, or whose listener is closed, is refused.
func dialPipe(addr string) (net.Conn, error) {
	pipeNet.Lock()
	defer pipeNet.Unlock()
	l := pipeNet.listeners[addr]
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "pipe", Addr: pipeAddr(addr), Err: errRefused}
	}
	l.dialed++
	cli, srv := net.Pipe()
	name := pipeAddr(fmt.Sprintf("%s.%d", addr, l.dialed))
	select {
	case l.conns <- &pipeConn{Conn: srv, local: l.addr, remote: name}:
	default:
		cli.Close()
		srv.Close()
		return nil, &net.OpError{Op: "dial", Net: "pipe", Addr: l.addr, Err: errRefused}
	}
	return &pipeConn{Conn: cli, local: name, remote: l.addr}, nil
}

var errRefused = errors.New("connection refused")

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close takes the name off the network and closes the connections dialed
// but not accepted, so their dialers read EOF, as after a reset.
func (l *pipeListener) Close() error {
	pipeNet.Lock()
	defer pipeNet.Unlock()
	if pipeNet.listeners[string(l.addr)] != l {
		return net.ErrClosed
	}
	delete(pipeNet.listeners, string(l.addr))
	close(l.done)
	for {
		select {
		case c := <-l.conns:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// Pipe returns an in-process connection pair shaped by link: cli's
// writes traverse the uplink, srv's the downlink. It avoids TCP
// overhead in unit tests.
func Pipe(link *Link) (cli, srv net.Conn) {
	a, b := net.Pipe()
	return link.ClientConn(a), link.ServerConn(b)
}
