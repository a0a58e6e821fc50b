package tunnel

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/simnet"
)

// diskPages is what a written disk extent looks like: text with a stray
// byte every 128 on average (vm.GenerateDisk's written pages).
func diskPages(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := 0; i < n; i += 16 {
		copy(p[i:], "/usr/lib/libgrid")
	}
	for i := 0; i < n/128; i++ {
		p[rng.Intn(n)] = byte(rng.Intn(256))
	}
	return p
}

func randomBytes(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// linkHold is how long the test link holds a writer back per byte: a
// 1 MB/s link, slower than the paper's WAN and far slower than deflate.
const linkHold = time.Microsecond

// heldPair is memPair over wires that hold their writers back, each
// direction's next frame one that may be deflated.
func heldPair(t testing.TB) (cli, srv *Conn, c2s, s2c *wire) {
	t.Helper()
	cli, srv, c2s, s2c = memPair(t, testKey(t))
	c2s.hold, s2c.hold = linkHold, linkHold
	holdBack(t, cli, srv, c2s)
	holdBack(t, srv, cli, s2c)
	return cli, srv, c2s, s2c
}

// holdBack sends heldWrites frames from src to dst over w, which holds
// src back: then src may deflate its next frame. (A deflated frame may be
// short enough for its write to count as not held back.) They are too
// short to be deflated, so they do not make src pass over the next ones.
func holdBack(t testing.TB, src, dst *Conn, w *wire) {
	t.Helper()
	warm := randomBytes(minTimed-1, 3)
	for i := 0; i < heldWrites; i++ {
		if _, err := src.Write(warm); err != nil {
			t.Fatal(err)
		}
		frame := w.take()
		if word := binary.BigEndian.Uint32(frame); word != uint32(len(warm)) {
			t.Fatalf("warm-up frame %d has length word %#x, want the plain %d", i, word, len(warm))
		}
		w.Write(frame)
		if _, err := io.ReadFull(dst, make([]byte, len(warm))); err != nil {
			t.Fatal(err)
		}
	}
	if src.w.held < heldWrites {
		t.Fatalf("%d writes at %v per byte counted as %d held back", heldWrites, w.hold, src.w.held)
	}
}

// While the link holds the writer back a compressible frame crosses
// deflated — an eighth shorter at least, flagged in its length word —
// and reads back as it was sent, at every size up to the frame bound and
// across frames. The counters keep their identity: wire bytes = tx −
// elided + 20 per frame.
func TestDeflatedRoundTrip(t *testing.T) {
	cli, srv, c2s, _ := heldPair(t)
	for _, size := range []int{minTimed, 8 << 10, 64 << 10, maxFrame, 2 * maxFrame} {
		payload := diskPages(size, int64(size))
		holdBack(t, cli, srv, c2s)
		before := ReadStats()
		if _, err := cli.Write(payload); err != nil {
			t.Fatal(err)
		}
		wire := c2s.take()
		after := ReadStats()
		frames := after.TxFrames - before.TxFrames
		if deflated := after.DeflatedFrames - before.DeflatedFrames; deflated != frames {
			t.Errorf("%d B: %d of %d frames deflated", size, deflated, frames)
		}
		if word := binary.BigEndian.Uint32(wire); word&deflatedBit == 0 || word&elidedBit != 0 {
			t.Errorf("%d B: length word %#x, want the deflated flag alone", size, word)
		}
		if limit := size - size/8 + int(frames)*(lenSize+tagSize); len(wire) > limit {
			t.Errorf("%d B crossed in %d wire bytes, want at most %d", size, len(wire), limit)
		}
		tx, el := after.TxBytes-before.TxBytes, after.ElidedBytes-before.ElidedBytes
		if tx != uint64(size) || tx-el+frames*(lenSize+tagSize) != uint64(len(wire)) {
			t.Errorf("%d B: tx %d, elided %d, %d frames, but %d bytes on the wire", size, tx, el, frames, len(wire))
		}
		c2s.Write(wire)
		got := bytes.Repeat([]byte{0xee}, size)
		if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d B deflated read back wrong (err=%v)", size, err)
		}
	}
}

// Bytes that do not deflate by an eighth cross as they would on a fast
// link, byte for byte: random bytes, and what the file channel gzips; so
// does a chunk too short to be worth deflating. Zero runs still cross as
// lengths.
func TestIncompressibleCrossesUnchanged(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(diskPages(256<<10, 1))
	zw.Close()
	zeroRun := diskPages(32<<10, 2)
	clear(zeroRun[4096:])
	for _, tc := range []struct {
		name    string
		payload []byte
		word    uint32 // flag of the length word
	}{
		{"random", randomBytes(64<<10, 4), 0},
		{"gzip", gz.Bytes(), 0},
		{"short", diskPages(minTimed-1, 5), 0},
		{"zero run", zeroRun, elidedBit},
	} {
		cli, srv, c2s, _ := heldPair(t)
		before := ReadStats()
		if _, err := cli.Write(tc.payload); err != nil {
			t.Fatal(err)
		}
		frame := c2s.take()
		if word := binary.BigEndian.Uint32(frame); word&(elidedBit|deflatedBit) != tc.word {
			t.Errorf("%s: length word %#x, want flags %#x", tc.name, word, tc.word)
		}
		if tc.word == 0 && len(frame) != lenSize+len(tc.payload)+tagSize {
			t.Errorf("%s: %d bytes crossed as %d", tc.name, len(tc.payload), len(frame))
		}
		if n := ReadStats().DeflatedFrames - before.DeflatedFrames; n != 0 {
			t.Errorf("%s: %d frames counted deflated", tc.name, n)
		}
		c2s.Write(frame)
		got := make([]byte, len(tc.payload))
		if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, tc.payload) {
			t.Fatalf("%s read back wrong (err=%v)", tc.name, err)
		}
	}
}

// After a chunk that did not deflate the writer passes over the next
// passOver chunks, which cross as they are, and tries again after them.
func TestPassOverAfterIncompressible(t *testing.T) {
	cli, srv, c2s, _ := heldPair(t)
	chunks := [][]byte{randomBytes(32<<10, 7)}
	for i := 0; i <= passOver; i++ {
		chunks = append(chunks, diskPages(32<<10, 6))
	}
	for i, payload := range chunks {
		if _, err := cli.Write(payload); err != nil {
			t.Fatal(err)
		}
		frame := c2s.take()
		if deflated := binary.BigEndian.Uint32(frame)&deflatedBit != 0; deflated != (i == passOver+1) {
			t.Errorf("chunk %d after an incompressible one: deflated=%v", i, deflated)
		}
		c2s.Write(frame)
		if _, err := io.ReadFull(srv, make([]byte, len(payload))); err != nil {
			t.Fatal(err)
		}
	}
}

// Over the paper's WAN a compressible 64 KiB READ reply — a written disk
// extent — costs the link under 8 KiB, not 64, once a few calls have
// shown that the link holds the writer back.
func TestDeflateOverWAN(t *testing.T) {
	link := simnet.NewLink(simnet.WAN())
	a, b := simnet.Pipe(link)
	key := testKey(t)
	var srv *Conn
	var sErr error
	done := make(chan struct{})
	go func() { defer close(done); srv, sErr = Server(b, key) }()
	cli, err := Client(a, key)
	<-done
	if err != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", err, sErr)
	}
	defer cli.Close()
	defer srv.Close()
	reply := diskPages(64<<10, 7)
	go func() {
		call := make([]byte, minTimed)
		for i := 0; i <= heldWrites; i++ {
			if _, err := io.ReadFull(srv, call); err != nil {
				return
			}
			if i < heldWrites {
				srv.Write(call)
			} else {
				srv.Write(reply)
			}
		}
	}()
	call := randomBytes(minTimed, 5)
	for i := 0; i < heldWrites; i++ {
		cli.Write(call)
		if _, err := io.ReadFull(cli, make([]byte, len(call))); err != nil {
			t.Fatal(err)
		}
	}
	before := link.Stats().Received
	cli.Write(call)
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(cli, got); err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("64 KiB reply read back wrong over the WAN (err=%v)", err)
	}
	if n := link.Stats().Received - before; n >= 8<<10 {
		t.Errorf("a compressible 64 KiB reply cost the WAN %d bytes, want under 8 KiB", n)
	}
}

// On loopback TCP the writer is never the link's to hold back: with
// three busy loops competing for the CPU, no frame of a compressible
// stream is deflated.
func TestLoopbackNotDeflated(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	key := testKey(t)
	accepted := make(chan *Conn, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		c, _ := Server(raw, key)
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Client(raw, key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	if srv == nil {
		t.Fatal("server handshake failed")
	}
	defer srv.Close()

	var stop atomic.Bool
	var busy sync.WaitGroup
	for i := 0; i < 3; i++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for n := 0; !stop.Load(); n++ {
			}
		}()
	}
	defer func() { stop.Store(true); busy.Wait() }()

	payload := diskPages(64<<10, 8)
	const frames = 300
	read := make(chan error, 1)
	go func() {
		got := make([]byte, len(payload))
		for i := 0; i < frames; i++ {
			if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, payload) {
				read <- err
				return
			}
		}
		read <- nil
	}()
	before := ReadStats().DeflatedFrames
	for i := 0; i < frames; i++ {
		if _, err := cli.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if n := ReadStats().DeflatedFrames - before; n != 0 {
		t.Errorf("%d of %d frames deflated over loopback TCP (GOMAXPROCS %d)", n, frames, runtime.GOMAXPROCS(0))
	}
}

// deflated is body's deflate stream, as a sender with a fresh state
// builds it.
func deflated(body []byte) []byte {
	var b bytes.Buffer
	fw, _ := flate.NewWriter(&b, flate.BestSpeed)
	fw.Write(body)
	fw.Close()
	return b.Bytes()
}

// An authentic deflated frame whose stream is bad is refused whole and
// for good, with nothing of it delivered and the inflate buffer never
// past the frame bound; so is one that claims both forms, whichever its
// body would pass for.
func TestMalformedDeflatedFrameIsStickyError(t *testing.T) {
	good := deflated([]byte("a body that deflates"))
	for _, tc := range []struct {
		name string
		body []byte
		form uint32 // flags of the length word
	}{
		{"not deflate", []byte("\xff\xff\xff\xff not a deflate stream"), deflatedBit},
		{"truncated stream", good[:len(good)-3], deflatedBit},
		{"bytes after its end", join(good, []byte("tail")), deflatedBit},
		{"inflates past the frame bound", deflated(make([]byte, maxFrame+1)), deflatedBit},
		{"both flags, a deflate stream", good, elidedBit | deflatedBit},
		{"both flags, triples", triple(1, 0, "a"), elidedBit | deflatedBit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv, c2s, _ := memPair(t, testKey(t))
			first := sealed(t, cli, c2s, "zero")[0]
			bad := sealAs(cli, tc.form|uint32(len(tc.body)), tc.body)
			c2s.Write(join(first, bad, sealed(t, cli, c2s, "after")[0]))
			c2s.close()
			readString(t, srv, "zero")
			readsFail(t, srv, nil)
			if n := len(srv.r.buf); n > maxBuf {
				t.Errorf("receive buffer grew to %d bytes", n)
			}
			if n := len(srv.plain); n > maxFrame {
				t.Errorf("inflate buffer grew to %d bytes, bound is %d", n, maxFrame)
			}
		})
	}
	// The bound itself is allowed.
	cli, srv, c2s, _ := memPair(t, testKey(t))
	body := deflated(bytes.Repeat([]byte{'z'}, maxFrame))
	c2s.Write(sealAs(cli, deflatedBit|uint32(len(body)), body))
	got := make([]byte, maxFrame)
	if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'z'}, maxFrame)) {
		t.Errorf("a frame that inflates to exactly %d bytes: err=%v", maxFrame, err)
	}
}

// FuzzInflate takes its input both ways. As a chunk to send over a link
// that holds the writer back: it reads back as sent. As the body of a
// deflated frame from a peer that holds the key: it is refused, or it
// inflates to what compress/flate makes of it, never past maxFrame — and
// neither panics. Seeds are in testdata/fuzz/FuzzInflate.
func FuzzInflate(f *testing.F) {
	f.Add(deflated(diskPages(8<<10, 1)))
	cli, srv, _, _ := heldPair(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFrame {
			data = data[:maxFrame]
		}
		if len(data) > 0 {
			if _, err := cli.Write(data); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d bytes read back wrong (err=%v)", len(data), err)
			}
		}
		c := &Conn{}
		out, err := c.inflate(data)
		if err != nil {
			return
		}
		if len(out) > maxFrame || len(c.plain) > maxFrame {
			t.Fatalf("inflated %d bytes into a %d-byte buffer, bound is %d", len(out), len(c.plain), maxFrame)
		}
		want, werr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), maxFrame+1))
		if werr != nil || !bytes.Equal(out, want) {
			t.Fatalf("inflated %d bytes, compress/flate reads %d (%v)", len(out), len(want), werr)
		}
	})
}
