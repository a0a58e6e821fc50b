package tunnel

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// KeySize is the session key length in bytes (AES-256).
const KeySize = 32

const (
	maxFrame  = 1 << 20 // bounds the plaintext of a single frame
	lenSize   = 4
	tagSize   = 16
	maxBuf    = lenSize + maxFrame + tagSize
	minBuf    = 512
	nonceSize = 16 // handshake nonce, not the GCM one
)

var (
	// ErrAuth reports a frame that failed authentication: the peer does
	// not hold the session key or the stream was tampered with.
	ErrAuth = errors.New("tunnel: frame authentication failed")
	// ErrHandshake reports a malformed or mismatched handshake.
	ErrHandshake = errors.New("tunnel: handshake failed")
)

var magic = [8]byte{'G', 'V', 'F', 'S', 'T', 'U', 'N', '4'}

// NewKey generates a random session key. Middleware generates one per
// file system session and installs it at both proxies.
func NewKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	return key, nil
}

// half is one direction of a Conn: its key, frame counter, buffer and
// sticky error, guarded by mu: one slot, as its holder waits on the link
// and a waiter must block durably in a testing/synctest bubble (simnet).
// The send half also counts its raw writes held back in a row and the
// chunks it passes over before it tries to deflate again, and holds the
// sink of the frame being deflated.
type half struct {
	mu    chan struct{}
	aead  cipher.AEAD
	nonce [12]byte // GCM nonce: 4 zero bytes ‖ frame sequence number
	seq   uint64
	buf   []byte
	err   error
	held  int
	skip  int
	out   bounded
}

// next returns the GCM nonce of the frame about to be sealed or opened.
// It lives in the half so that passing it to the AEAD does not allocate.
func (h *half) next() []byte {
	binary.BigEndian.PutUint64(h.nonce[4:], h.seq)
	return h.nonce[:]
}

// Conn is an encrypted channel over an underlying net.Conn.
type Conn struct {
	raw net.Conn
	w   half
	r   half
	// r.buf[rpos:rend] holds bytes received but not yet opened. body is
	// the opened part of the current frame not yet delivered and aliases
	// r.buf below rpos — or plain, for a deflated frame: lit literal
	// bytes, then zero zero bytes that are not in it, then — in an elided
	// frame — the next triple.
	rpos, rend int
	body       []byte
	lit, zero  int
	plain      []byte       // inflate buffer: a deflated frame's plaintext
	src        bytes.Reader // the deflated body being inflated
}

// Client performs the initiator handshake over raw using the shared
// session key and returns the encrypted channel.
func Client(raw net.Conn, key []byte) (*Conn, error) {
	return handshake(raw, key, true)
}

// Server performs the responder handshake over raw using the shared
// session key and returns the encrypted channel.
func Server(raw net.Conn, key []byte) (*Conn, error) {
	return handshake(raw, key, false)
}

func handshake(raw net.Conn, key []byte, initiator bool) (*Conn, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("tunnel: key must be %d bytes, got %d", KeySize, len(key))
	}
	var mine, theirs [len(magic) + nonceSize]byte
	copy(mine[:], magic[:])
	if _, err := rand.Read(mine[len(magic):]); err != nil {
		return nil, err
	}
	// The initiator speaks first; the responder answers only a valid hello.
	if initiator {
		if _, err := raw.Write(mine[:]); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(raw, theirs[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if [len(magic)]byte(theirs[:len(magic)]) != magic {
		return nil, ErrHandshake
	}
	if !initiator {
		if _, err := raw.Write(mine[:]); err != nil {
			return nil, err
		}
	}
	send, recv := "client", "server"
	clientNonce, serverNonce := mine[len(magic):], theirs[len(magic):]
	if !initiator {
		send, recv = recv, send
		clientNonce, serverNonce = serverNonce, clientNonce
	}
	c := newConn(raw)
	var err error
	if c.w.aead, err = deriveAEAD(key, send, clientNonce, serverNonce); err != nil {
		return nil, err
	}
	if c.r.aead, err = deriveAEAD(key, recv, clientNonce, serverNonce); err != nil {
		return nil, err
	}
	return c, nil
}

// newConn returns a Conn over raw with both halves' locks made.
func newConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, w: half{mu: make(chan struct{}, 1)}, r: half{mu: make(chan struct{}, 1)}}
}

// deriveAEAD returns the AES-256-GCM instance of one direction of one
// connection.
func deriveAEAD(key []byte, role string, clientNonce, serverNonce []byte) (cipher.AEAD, error) {
	h := hmac.New(sha256.New, key)
	h.Write([]byte("gvfs-tunnel-aead-" + role))
	h.Write(clientNonce)
	h.Write(serverNonce)
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// grown returns buf if it can hold need bytes, else a new buffer that
// can: double the size, within [minBuf, maxBuf]. Buffers are kept at
// full length, so len is the capacity.
func grown(buf []byte, need int) []byte {
	if need <= len(buf) {
		return buf
	}
	return make([]byte, max(need, min(2*len(buf), maxBuf), minBuf))
}

// Write seals p as one authenticated frame per maxFrame bytes, each
// sent with a single write to the underlying connection. A chunk whose
// elided form is at least a sector shorter is sealed in that form; else,
// while the link holds the writer back, one whose deflated form is at
// least an eighth shorter is sealed in that one.
func (c *Conn) Write(p []byte) (int, error) {
	w := &c.w
	w.mu <- struct{}{}
	defer func() { <-w.mu }()
	total := 0
	for len(p) > 0 && w.err == nil {
		chunk := p[:min(len(p), maxFrame)]
		body, word := chunk, uint32(len(chunk))
		if n := elidedLen(chunk); n+sector <= len(chunk) {
			w.buf = grown(w.buf, lenSize+n+tagSize)
			body, word = elide(w.buf[lenSize:lenSize], chunk), elidedBit|uint32(n) // sealed where it lies
		} else {
			w.buf = grown(w.buf, lenSize+len(chunk)+tagSize)
			if d := w.deflate(w.buf[lenSize:lenSize], chunk); d != nil {
				body, word = d, deflatedBit|uint32(len(d))
			}
		}
		hdr := w.buf[:lenSize]
		binary.BigEndian.PutUint32(hdr, word)
		frame := w.aead.Seal(hdr, w.next(), body, hdr)
		t0 := time.Now()
		n, err := c.raw.Write(frame)
		w.timed(len(frame), time.Since(t0))
		if err != nil || n != len(frame) {
			// The peer may hold part of this frame: nothing more can
			// be sent that it would accept.
			if err == nil {
				err = io.ErrShortWrite
			}
			w.err = err
			break
		}
		w.seq++
		stats.txFrames.Add(1)
		stats.txBytes.Add(uint64(len(chunk)))
		stats.elided.Add(uint64(len(chunk) - len(body)))
		if word&deflatedBit != 0 {
			stats.deflated.Add(1)
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, w.err
}

// Read delivers the plaintext of the current frame, first receiving and
// opening the next one if the current one is used up.
func (c *Conn) Read(p []byte) (int, error) {
	r := &c.r
	r.mu <- struct{}{}
	defer func() { <-r.mu }()
	for {
		if n := c.deliver(p); n > 0 || len(p) == 0 {
			return n, nil
		}
		if err := c.open(); err != nil {
			return 0, err
		}
	}
}

// deliver copies what is left of the current frame into p, expanding an
// elided frame's zero runs there — they are never held in a buffer of the
// Conn — and returns the number of bytes it set.
func (c *Conn) deliver(p []byte) (n int) {
	for n < len(p) {
		switch {
		case c.lit > 0:
			k := copy(p[n:], c.body[:c.lit])
			c.body, c.lit = c.body[k:], c.lit-k
			n += k
		case c.zero > 0:
			k := min(len(p)-n, c.zero)
			clear(p[n : n+k])
			c.zero -= k
			n += k
		case len(c.body) > 0: // an elided frame's next triple; open checked them all
			c.lit = int(binary.BigEndian.Uint32(c.body))
			c.zero = int(binary.BigEndian.Uint32(c.body[4:]))
			c.body = c.body[tripleHdr:]
		default:
			return n
		}
	}
	return n
}

// open receives and opens the next frame, once the current one has been
// delivered, and makes it the current one.
func (c *Conn) open() error {
	r := &c.r
	if r.err != nil {
		return r.err
	}
	if err := c.fill(lenSize); err != nil {
		return err
	}
	word := binary.BigEndian.Uint32(r.buf[c.rpos:])
	n := word &^ (elidedBit | deflatedBit)
	if word&(elidedBit|deflatedBit) == elidedBit|deflatedBit {
		r.err = errors.New("tunnel: frame marked both elided and deflated")
		return r.err
	}
	if n > maxFrame {
		r.err = fmt.Errorf("tunnel: oversized frame (%d bytes)", n)
		return r.err
	}
	size := lenSize + int(n) + tagSize
	if err := c.fill(size); err != nil {
		return err
	}
	frame := r.buf[c.rpos : c.rpos+size]
	body, err := r.aead.Open(frame[lenSize:lenSize], r.next(), frame[lenSize:], frame[:lenSize])
	if err != nil {
		r.err = ErrAuth
		return r.err
	}
	plain := len(body)
	switch {
	case word&elidedBit != 0:
		plain, err = expandedLen(body)
	case word&deflatedBit != 0:
		body, err = c.inflate(body)
		plain, c.lit = len(body), len(body)
	default:
		c.lit = plain
	}
	if err != nil {
		r.err = err
		return r.err
	}
	c.body = body
	c.rpos += size
	r.seq++
	stats.rxFrames.Add(1)
	stats.rxBytes.Add(uint64(plain))
	return nil
}

// fill receives until r.buf[rpos:rend] holds at least need bytes,
// taking whatever more one read of the underlying connection returns.
// It is called only when no opened frame is pending, so it may move
// the unopened bytes to the front of the buffer or to a larger one. A
// failed read (a deadline, say) keeps what was received: a later call
// resumes the same frame.
func (c *Conn) fill(need int) error {
	r := &c.r
	if c.rpos+need > len(r.buf) || c.rpos == c.rend {
		unopened := r.buf[c.rpos:c.rend]
		r.buf = grown(r.buf, need)
		c.rpos, c.rend = 0, copy(r.buf, unopened)
	}
	if have := c.rend - c.rpos; have < need {
		n, err := io.ReadAtLeast(c.raw, r.buf[c.rend:], need-have)
		c.rend += n
		if err == io.EOF && c.rend > c.rpos {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return err
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline forwards to the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline forwards to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline forwards to the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }
