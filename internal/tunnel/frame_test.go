package tunnel

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// wire is one direction of an in-memory connection: a byte queue whose
// Read blocks while it is empty. Tests reach into it to take the frames
// one endpoint sealed and to hand the other endpoint altered ones. Once
// its array has grown it does not allocate, which TestFrameAllocs needs.
type wire struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []byte
	closed bool
	fail   error         // returned once by a Read that finds the queue empty
	hold   time.Duration // per byte written: the link holds the writer back this long
}

func newWire() *wire {
	w := &wire{}
	w.ready.L = &w.mu
	return w
}

func (w *wire) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(len(p)) * w.hold)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	w.buf = append(w.buf, p...)
	w.ready.Broadcast()
	return len(p), nil
}

func (w *wire) Read(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.buf) == 0 && !w.closed && w.fail == nil {
		w.ready.Wait()
	}
	if len(w.buf) == 0 {
		if err := w.fail; err != nil {
			w.fail = nil
			return 0, err
		}
		return 0, io.EOF
	}
	n := copy(p, w.buf)
	w.buf = w.buf[:copy(w.buf, w.buf[n:])]
	return n, nil
}

func (w *wire) close() {
	w.mu.Lock()
	w.closed = true
	w.ready.Broadcast()
	w.mu.Unlock()
}

// take removes and returns everything queued.
func (w *wire) take() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := append([]byte(nil), w.buf...)
	w.buf = w.buf[:0]
	return out
}

// memConn is a net.Conn over two wires. Deadlines are not implemented.
type memConn struct{ in, out *wire }

func (m memConn) Read(p []byte) (int, error)       { return m.in.Read(p) }
func (m memConn) Write(p []byte) (int, error)      { return m.out.Write(p) }
func (m memConn) Close() error                     { m.in.close(); m.out.close(); return nil }
func (m memConn) LocalAddr() net.Addr              { return nil }
func (m memConn) RemoteAddr() net.Addr             { return nil }
func (m memConn) SetDeadline(time.Time) error      { return nil }
func (m memConn) SetReadDeadline(time.Time) error  { return nil }
func (m memConn) SetWriteDeadline(time.Time) error { return nil }

// memPair establishes a tunnel over in-memory wires and returns them:
// c2s carries what cli writes, s2c what srv writes.
func memPair(t testing.TB, key []byte) (cli, srv *Conn, c2s, s2c *wire) {
	t.Helper()
	c2s, s2c = newWire(), newWire()
	var wg sync.WaitGroup
	var cErr, sErr error
	wg.Add(2)
	go func() { defer wg.Done(); cli, cErr = Client(memConn{in: s2c, out: c2s}, key) }()
	go func() { defer wg.Done(); srv, sErr = Server(memConn{in: c2s, out: s2c}, key) }()
	wg.Wait()
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	return cli, srv, c2s, s2c
}

// sealed writes each message through c and returns the frames it put on
// w, one per message.
func sealed(t *testing.T, c *Conn, w *wire, msgs ...string) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, m := range msgs {
		if _, err := c.Write([]byte(m)); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, w.take())
	}
	return frames
}

// readsFail checks that Read returns want, and the same error again,
// without ever delivering a byte.
func readsFail(t *testing.T, c *Conn, want error) {
	t.Helper()
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		n, err := c.Read(buf)
		if n != 0 || err == nil || (want != nil && err != want) {
			t.Fatalf("read %d after a bad frame: n=%d err=%v, want 0, %v", i, n, err, want)
		}
		if want == nil {
			want = err
		}
	}
}

func readString(t *testing.T, c *Conn, want string) {
	t.Helper()
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != want {
		t.Fatalf("read %q, %v; want %q", buf, err, want)
	}
}

// Every way of disturbing the frame stream is refused once and for
// good: the bytes behind the failure are never parsed as frames, even
// where they are frames the peer did seal.
func TestBadFrameIsStickyError(t *testing.T) {
	cases := []struct {
		name  string
		wire  func(f [][]byte) []byte // what the receiver gets, from three sealed frames
		first string                  // delivered intact before the failure
		want  error                   // nil: the frame bound error
	}{
		{"replay", func(f [][]byte) []byte { return join(f[0], f[0], f[1], f[2]) }, "zero", ErrAuth},
		{"swap", func(f [][]byte) []byte { return join(f[1], f[0], f[2]) }, "", ErrAuth},
		{"drop", func(f [][]byte) []byte { return join(f[0], f[2]) }, "zero", ErrAuth},
		{"truncated tag", func(f [][]byte) []byte { return join(f[0][:len(f[0])-3], f[1], f[2]) }, "", ErrAuth},
		{"flipped ciphertext", func(f [][]byte) []byte { f[0][lenSize] ^= 1; return join(f...) }, "", ErrAuth},
		{"flipped tag", func(f [][]byte) []byte { f[0][len(f[0])-1] ^= 0x80; return join(f...) }, "", ErrAuth},
		{"length shrunk", func(f [][]byte) []byte { f[0][3] = 3; return join(f...) }, "", ErrAuth},
		{"length grown", func(f [][]byte) []byte { f[0][3] = 9; return join(f...) }, "", ErrAuth},
		{"length over bound", func(f [][]byte) []byte { f[1][0] ^= 0x20; return join(f...) }, "zero", nil},
		{"elided bit set", func(f [][]byte) []byte { f[1][0] ^= 0x80; return join(f...) }, "zero", ErrAuth},
		{"deflated bit set", func(f [][]byte) []byte { f[1][0] ^= 0x40; return join(f...) }, "zero", ErrAuth},
		{"both flag bits set", func(f [][]byte) []byte { f[1][0] ^= 0xc0; return join(f...) }, "zero", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv, c2s, _ := memPair(t, testKey(t))
			frames := sealed(t, cli, c2s, "zero", "one!", "two")
			c2s.Write(tc.wire(frames))
			c2s.close() // a wait for more bytes would be a hang
			if tc.first != "" {
				readString(t, srv, tc.first)
			}
			readsFail(t, srv, tc.want)
			if n := len(srv.r.buf); n > minBuf {
				t.Errorf("receive buffer grew to %d bytes on a bad frame", n)
			}
		})
	}
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// A stream cut inside a frame ends in an error, not in plaintext.
func TestTruncatedStream(t *testing.T) {
	cli, srv, c2s, _ := memPair(t, testKey(t))
	frames := sealed(t, cli, c2s, "zero", "one")
	c2s.Write(join(frames[0], frames[1][:len(frames[1])-1]))
	c2s.close()
	readString(t, srv, "zero")
	readsFail(t, srv, io.ErrUnexpectedEOF)
}

// A length above maxFrame is refused from the 4-byte header alone.
func TestOversizedLengthRefusedBeforeBuffering(t *testing.T) {
	_, srv, c2s, _ := memPair(t, testKey(t))
	var hdr [lenSize]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	c2s.Write(hdr[:])
	readsFail(t, srv, nil)
	if n := len(srv.r.buf); n > minBuf {
		t.Errorf("receive buffer is %d bytes after an oversized length", n)
	}
}

// The two directions of a connection, and two connections under one
// session key, never share an AEAD key: a frame sealed for one is not
// accepted by another at the same sequence number.
func TestKeysAreUniquePerDirectionAndConnection(t *testing.T) {
	key := testKey(t)
	cli1, srv1, c2s1, s2c1 := memPair(t, key)
	_, srv2, c2s2, _ := memPair(t, key)
	frame := sealed(t, cli1, c2s1, "frame zero of connection one")[0]

	s2c1.Write(frame) // reflected to its sender
	readsFail(t, cli1, ErrAuth)
	c2s2.Write(frame) // spliced into another connection
	readsFail(t, srv2, ErrAuth)
	c2s1.Write(frame) // and where it belongs
	readString(t, srv1, "frame zero of connection one")
}

// failingConn fails or shortens the writes after the first `good` ones.
type failingConn struct {
	memConn
	good, calls int
	short       bool
}

func (f *failingConn) Write(p []byte) (int, error) {
	f.calls++
	if f.calls <= f.good {
		return f.memConn.Write(p)
	}
	if f.short {
		return len(p) - 1, nil
	}
	return 0, errors.New("link down")
}

func TestFailedWriteIsStickyError(t *testing.T) {
	for _, short := range []bool{false, true} {
		cli, srv, _, _ := memPair(t, testKey(t))
		raw := &failingConn{memConn: cli.raw.(memConn), good: 1, short: short}
		cli.raw = raw
		if _, err := cli.Write([]byte("zero")); err != nil {
			t.Fatal(err)
		}
		n, err := cli.Write([]byte("lost"))
		if n != 0 || err == nil {
			t.Fatalf("short=%v: write over a failing link: n=%d err=%v", short, n, err)
		}
		if short && err != io.ErrShortWrite {
			t.Errorf("short write reported as %v", err)
		}
		for i := 0; i < 2; i++ {
			if n, again := cli.Write([]byte("more")); n != 0 || again != err {
				t.Errorf("short=%v: later write: n=%d err=%v, want 0, %v", short, n, again, err)
			}
		}
		if raw.calls != 2 {
			t.Errorf("short=%v: %d raw writes, want 2: nothing may follow a broken frame", short, raw.calls)
		}
		readString(t, srv, "zero")
	}
}

// A read that fails part-way through a frame (a deadline) loses
// nothing: the next Read resumes the same frame.
func TestReadResumesAfterRawError(t *testing.T) {
	cli, srv, c2s, _ := memPair(t, testKey(t))
	msg := string(bytes.Repeat([]byte("resume"), 500))
	frame := sealed(t, cli, c2s, msg)[0]
	timeout := errors.New("i/o timeout")
	for _, cut := range []int{2, lenSize, lenSize + 100, len(frame) - 1} {
		c2s.Write(frame[:cut])
		c2s.mu.Lock()
		c2s.fail = timeout
		c2s.mu.Unlock()
		if n, err := srv.Read(make([]byte, 8)); n != 0 || err != timeout {
			t.Fatalf("cut %d: n=%d err=%v, want 0 and the raw error", cut, n, err)
		}
		c2s.Write(frame[cut:])
		srv.r.seq = 0 // the same sealed frame serves every cut
		readString(t, srv, msg)
	}
}

var roles = map[string]func(net.Conn, []byte) (*Conn, error){"server": Server, "client": Client}

// A peer that speaks a previous wire format — GVFSTUN2's frames have no
// elided form, GVFSTUN3's no deflated one, and either would misread a
// length word that has a form's flag set — is turned away at the
// handshake, by either role.
func TestVersionMismatch(t *testing.T) {
	for _, old := range []string{"GVFSTUN1", "GVFSTUN2", "GVFSTUN3"} {
		for name, role := range roles {
			in, out := newWire(), newWire()
			in.Write(append([]byte(old), make([]byte, nonceSize)...))
			c, err := role(memConn{in: in, out: out}, testKey(t))
			if c != nil || !errors.Is(err, ErrHandshake) {
				t.Errorf("%s, %s peer: conn=%v err=%v, want ErrHandshake", name, old, c, err)
			}
			if name == "server" && len(out.take()) != 0 {
				t.Errorf("server answered the hello of a %s peer", old)
			}
		}
	}
}

func TestKeySizeEnforcedByBothRoles(t *testing.T) {
	for _, n := range []int{0, 16, KeySize - 1, KeySize + 1, 64} {
		for name, role := range roles {
			in := newWire()
			in.Write(append(magic[:], make([]byte, nonceSize)...))
			if c, err := role(memConn{in: in, out: newWire()}, make([]byte, n)); c != nil || err == nil {
				t.Errorf("%s accepted a %d-byte key", name, n)
			}
		}
	}
}

// payloads are what the frame tests and benchmarks send: bytes with
// nothing to elide (seeded, so a failure repeats), nothing but zeros, and
// the shape of a READ reply from a never-written region, a short header
// before the zeros.
var payloads = []struct {
	name string
	fill func(p []byte)
}{
	{"random", func(p []byte) { rand.New(rand.NewSource(20040604)).Read(p) }},
	{"zero", func(p []byte) {}},
	{"header+zero", func(p []byte) { rand.New(rand.NewSource(1)).Read(p[:min(len(p), 132)]) }},
}

// Steady-state frames cost no allocation in either direction, elided or
// not: sealed from the caller's slice (or from its elided form, built in
// place) into the Conn's buffer, opened in place, zero runs expanded in
// the reader's buffer. Deflated frames: see deflatedFrameAllocs.
func TestFrameAllocs(t *testing.T) {
	cli, srv, _, _ := memPair(t, testKey(t))
	for _, kind := range payloads {
		for _, size := range []int{150, 8192, 32 << 10} {
			payload := make([]byte, size)
			kind.fill(payload)
			got := make([]byte, size)
			for _, dir := range []struct {
				name     string
				src, dst *Conn
			}{{"client to server", cli, srv}, {"server to client", srv, cli}} {
				frame := func() {
					if _, err := dir.src.Write(payload); err != nil {
						t.Fatal(err)
					}
					got[size-1] ^= 0xff // a zero run must be written, not found
					if _, err := io.ReadFull(dir.dst, got); err != nil {
						t.Fatal(err)
					}
				}
				frame() // warm-up: buffers grow to this frame size
				if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
					t.Errorf("%s %d B %s: %.2f allocs per frame, want 0", kind.name, size, dir.name, allocs)
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("%s %d B %s: payload corrupted", kind.name, size, dir.name)
				}
			}
		}
	}
	t.Run("deflated", deflatedFrameAllocs)
}

// Deflated frames, over a link that holds the writer back, cost no
// allocation to send; to open one costs only what compress/flate's
// decoder allocates for the same stream (a table per run of Huffman codes
// longer than 9 bits, rebuilt for every block).
func deflatedFrameAllocs(t *testing.T) {
	cli, srv, c2s, _ := heldPair(t)
	const runs = 20
	for _, size := range []int{32 << 10, 64 << 10} {
		payload := diskPages(size, int64(size))
		got := make([]byte, size)
		c2s.buf = make([]byte, 0, (runs+1)*size) // the wire queues every frame without growing
		before := ReadStats().DeflatedFrames
		send := testing.AllocsPerRun(runs, func() {
			if _, err := cli.Write(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n := ReadStats().DeflatedFrames - before; n != runs+1 {
			t.Fatalf("%d B: %d of %d frames deflated", size, n, runs+1)
		}
		open := testing.AllocsPerRun(runs, func() {
			got[size-1] ^= 0xff
			if _, err := io.ReadFull(srv, got); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got, payload) {
			t.Errorf("%d B: payload corrupted", size)
		}
		body := deflated(payload)
		var src bytes.Reader
		fr := flate.NewReader(&src)
		bare := testing.AllocsPerRun(runs, func() {
			src.Reset(body)
			fr.(flate.Resetter).Reset(&src, nil)
			io.ReadFull(fr, got)
		})
		t.Logf("%d B deflated: %.2f allocs to send, %.2f to open, %.2f in compress/flate alone", size, send, open, bare)
		if send != 0 || open > bare {
			t.Errorf("%d B deflated: %.2f allocs to send, %.2f to open (compress/flate alone: %.2f), want 0 and at most that",
				size, send, open, bare)
		}
	}
}

// Buffers follow the largest sealed frame seen and stop at the frame
// bound; zero runs take no room in them at either end.
func TestBuffersBounded(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want int // of the busy direction's two buffers
	}{{"random", maxBuf}, {"zero", minBuf}} {
		cli, srv, _, _ := memPair(t, testKey(t))
		payload := make([]byte, 2*maxFrame+1)
		if tc.kind == "random" {
			payloads[0].fill(payload)
		}
		wrote := make(chan error, 1)
		go func() {
			_, err := cli.Write(payload)
			wrote <- err
		}()
		got := bytes.Repeat([]byte{0xff}, len(payload))
		if _, err := io.ReadFull(srv, got); err != nil {
			t.Fatal(err)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: payload corrupted", tc.kind)
		}
		if len(cli.w.buf) != tc.want || len(srv.r.buf) != tc.want {
			t.Errorf("%s, after full frames: send buffer %d, receive buffer %d, want %d", tc.kind, len(cli.w.buf), len(srv.r.buf), tc.want)
		}
		if len(cli.r.buf) != 0 || len(srv.w.buf) != 0 {
			t.Errorf("%s: idle direction holds buffers: %d, %d", tc.kind, len(cli.r.buf), len(srv.w.buf))
		}
	}

	// Deflated, a frame takes its sealed size in the receive buffer and
	// its plaintext in the inflate buffer, which stops at the frame bound;
	// the send buffer holds the chunk in case it does not deflate.
	cli, srv, _, _ := heldPair(t)
	payload := diskPages(2*maxFrame, 1)
	wrote := make(chan error, 1)
	go func() {
		_, err := cli.Write(payload)
		wrote <- err
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("deflated: payload corrupted")
	}
	largest := lenSize + max(len(deflated(payload[:maxFrame])), len(deflated(payload[maxFrame:]))) + tagSize
	if len(cli.w.buf) != maxBuf || len(srv.r.buf) > 2*largest || len(srv.plain) != maxFrame {
		t.Errorf("deflated, after full frames: send buffer %d, receive buffer %d, inflate buffer %d; want %d, at most %d, %d",
			len(cli.w.buf), len(srv.r.buf), len(srv.plain), maxBuf, 2*largest, maxFrame)
	}
}

// discard accepts writes; replay serves one frame over and over, a
// read never crossing its end.
type discard struct{ memConn }

func (discard) Write(p []byte) (int, error) { return len(p), nil }

type replay struct {
	memConn
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

var benchSizes = []struct {
	name string
	n    int
}{{"8KiB", 8 << 10}, {"64KiB", 64 << 10}}

// benchPayloads runs f for every payload kind and size.
func benchPayloads(b *testing.B, f func(b *testing.B, payload []byte)) {
	for _, kind := range payloads {
		for _, size := range benchSizes {
			b.Run(kind.name+"/"+size.name, func(b *testing.B) {
				payload := make([]byte, size.n)
				kind.fill(payload)
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				f(b, payload)
			})
		}
	}
}

// BenchmarkTunnelSeal is the send half of a frame: the probe for zero
// runs, one AEAD pass into the Conn's buffer (over the elided form when
// there is one) and the hand-off to the raw connection.
func BenchmarkTunnelSeal(b *testing.B) {
	benchPayloads(b, func(b *testing.B, payload []byte) {
		cli, _, _, _ := memPair(b, make([]byte, KeySize))
		cli.raw = discard{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTunnelOpen is the receive half: one read of the raw
// connection (a copy, as from a socket), the in-place open and the
// copy out — or expansion — to the caller. The same sealed frame is
// served every time, so the sequence number is held at 0.
func BenchmarkTunnelOpen(b *testing.B) {
	benchPayloads(b, func(b *testing.B, payload []byte) {
		cli, srv, c2s, _ := memPair(b, make([]byte, KeySize))
		if _, err := cli.Write(payload); err != nil {
			b.Fatal(err)
		}
		srv.raw = &replay{frame: c2s.take()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.r.seq = 0
			if _, err := io.ReadFull(srv, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
