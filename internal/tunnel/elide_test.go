package tunnel

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// expand delivers an elided body the way Read does, step bytes at a time,
// into a buffer that is never zero to begin with.
func expand(body []byte, step int) []byte {
	c := &Conn{body: body}
	var out []byte
	buf := make([]byte, step)
	for {
		for i := range buf {
			buf[i] = 0xee
		}
		n := c.deliver(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// checkElide is the property: a chunk's elided form has the length
// elidedLen says, passes the receiver's check and expands to the chunk.
func checkElide(t *testing.T, chunk []byte) {
	t.Helper()
	enc := elide(nil, chunk)
	if len(enc) != elidedLen(chunk) {
		t.Fatalf("elided form of %d bytes is %d bytes, elidedLen says %d", len(chunk), len(enc), elidedLen(chunk))
	}
	if len(enc) > len(chunk)+tripleHdr {
		t.Fatalf("elided form of %d bytes is %d bytes: more than one triple's lengths longer", len(chunk), len(enc))
	}
	if n, err := expandedLen(enc); err != nil || n != len(chunk) {
		t.Fatalf("expandedLen of the elided form of %d bytes: %d, %v", len(chunk), n, err)
	}
	for _, step := range []int{1 + len(chunk)/3, len(chunk) + 1, 7} {
		if len(chunk) > 1<<16 && step == 7 {
			continue
		}
		if got := expand(enc, step); !bytes.Equal(got, chunk) {
			t.Fatalf("a %d-byte chunk does not survive elide and expand (%d bytes at a time)", len(chunk), step)
		}
	}
}

// mixedChunk is n bytes of random literals and zero runs, run lengths
// spread around the sector size and starts at any alignment.
func mixedChunk(rng *rand.Rand, n int) []byte {
	chunk := make([]byte, n)
	for off := 0; off < n; {
		run := min(n-off, rng.Intn(4*sector))
		if rng.Intn(2) == 0 {
			rng.Read(chunk[off : off+run])
		}
		off += run
	}
	return chunk
}

func TestElideExpandIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		checkElide(t, mixedChunk(rng, rng.Intn(20*sector)))
	}
	for _, n := range []int{0, 1, 7, 8, sector - 1, sector, sector + 7, sector + tripleHdr, maxFrame} {
		checkElide(t, make([]byte, n))
		checkElide(t, bytes.Repeat([]byte{1}, n))
	}
	checkElide(t, mixedChunk(rng, maxFrame))
}

// What zeroRun promises: a run of sector+7 zero bytes is found wherever
// it starts, a shorter one is never split off, and bytes that are not
// zero at the probes cost one load per sector.
func TestZeroRunProbe(t *testing.T) {
	for start := 1; start < 2*sector+2; start++ {
		chunk := bytes.Repeat([]byte{0xff}, 4*sector)
		clear(chunk[start : start+sector+7])
		if s, e := zeroRun(chunk, 0); s != start || e != start+sector+7 {
			t.Fatalf("run at %d: found [%d, %d)", start, s, e)
		}
		chunk[start+sector-1] = 1 // now a run one short of a sector, and a few bytes
		if s, e := zeroRun(chunk, 0); s != len(chunk) || e != len(chunk) {
			t.Fatalf("run of %d bytes at %d taken out: [%d, %d)", sector-1, start, s, e)
		}
	}
}

// fixedConn is a client Conn that skipped the handshake: its send key
// comes from a known session key and known nonces.
func fixedConn(t *testing.T, raw memConn) *Conn {
	t.Helper()
	key, nonce := bytes.Repeat([]byte{7}, KeySize), make([]byte, nonceSize)
	c := newConn(raw)
	var err error
	if c.w.aead, err = deriveAEAD(key, "client", nonce, nonce); err != nil {
		t.Fatal(err)
	}
	return c
}

// A frame with nothing worth eliding is what it was before there was an
// elided form: length ‖ ciphertext ‖ tag, the length the additional data.
func TestUnelidedFrameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	almost := make([]byte, 4*sector) // a zero run that saves one byte less than a sector
	rng.Read(almost)
	clear(almost[100 : 100+sector+2*tripleHdr-1])
	random := make([]byte, 32<<10)
	rng.Read(random)
	for i, payload := range [][]byte{[]byte("GETATTR"), random, almost, make([]byte, sector+tripleHdr-1)} {
		out := newWire()
		c := fixedConn(t, memConn{in: newWire(), out: out})
		for seq := uint64(0); seq < 2; seq++ {
			if _, err := c.Write(payload); err != nil {
				t.Fatal(err)
			}
			var nonce [12]byte
			binary.BigEndian.PutUint64(nonce[4:], seq)
			want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
			want = c.w.aead.Seal(want, nonce[:], payload, want)
			if got := out.take(); !bytes.Equal(got, want) {
				t.Errorf("payload %d, frame %d: %d bytes on the wire differ from length ‖ Seal(payload) (%d bytes)", i, seq, len(got), len(want))
			}
		}
	}
}

// The save-a-sector rule, and what an elided frame costs: a READ reply
// of 32 KiB of zeros crosses in under 256 bytes, counted as 32 KiB of
// plaintext at both ends with the difference reported as elided.
func TestElidedFrameOnTheWire(t *testing.T) {
	cli, srv, c2s, _ := memPair(t, testKey(t))
	reply := make([]byte, 132+32<<10)
	rand.New(rand.NewSource(9)).Read(reply[:132])
	before := ReadStats()
	if _, err := cli.Write(reply); err != nil {
		t.Fatal(err)
	}
	frame := c2s.take()
	if len(frame) > 256 {
		t.Errorf("a 32 KiB all-zero READ reply is a %d-byte frame, want at most 256", len(frame))
	}
	if word := binary.BigEndian.Uint32(frame); word != elidedBit|uint32(len(frame)-lenSize-tagSize) {
		t.Errorf("length word %#x of a %d-byte elided frame", word, len(frame))
	}
	c2s.Write(frame)
	got := bytes.Repeat([]byte{0xee}, len(reply))
	if _, err := io.ReadFull(srv, got); err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("elided frame read back wrong (err=%v)", err)
	}
	after := ReadStats()
	if tx, rx := after.TxBytes-before.TxBytes, after.RxBytes-before.RxBytes; tx != uint64(len(reply)) || rx != tx {
		t.Errorf("counted %d bytes sent, %d received, want the plaintext's %d", tx, rx, len(reply))
	}
	if el, want := after.ElidedBytes-before.ElidedBytes, uint64(len(reply)+lenSize+tagSize-len(frame)); el != want {
		t.Errorf("counted %d bytes elided, want %d: wire bytes = tx − elided + %d per frame", el, want, lenSize+tagSize)
	}

	// One zero sector among literals saves a sector less the lengths of
	// two triples: the frame goes out whole. One byte more and it pays.
	for _, tc := range []struct {
		zeros  int
		elided bool
	}{{sector + 2*tripleHdr - 1, false}, {sector + 2*tripleHdr, true}} {
		chunk := bytes.Repeat([]byte{0x5a}, 4*sector)
		clear(chunk[sector/2 : sector/2+tc.zeros])
		if _, err := cli.Write(chunk); err != nil {
			t.Fatal(err)
		}
		frame := c2s.take()
		if got := binary.BigEndian.Uint32(frame)&elidedBit != 0; got != tc.elided {
			t.Errorf("%d zero bytes in %d: elided=%v, want %v", tc.zeros, len(chunk), got, tc.elided)
		}
		if tc.elided && len(frame) != len(chunk)+lenSize+tagSize-sector {
			t.Errorf("elided frame is %d bytes, want a sector less than %d", len(frame), len(chunk)+lenSize+tagSize)
		}
	}
}

// sealAs seals body under c's send key with the given length word, as a
// peer that holds the session key but builds its frames wrong would.
func sealAs(c *Conn, word uint32, body []byte) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, word)
	frame := c.w.aead.Seal(hdr, c.w.next(), body, hdr)
	c.w.seq++
	return frame
}

func triple(lit, zero uint32, literal string) []byte {
	b := binary.BigEndian.AppendUint32(nil, lit)
	b = binary.BigEndian.AppendUint32(b, zero)
	return append(b, literal...)
}

// An authentic elided frame whose triples do not add up is refused whole
// and for good — none of it is delivered, and nothing is ever buffered
// for the zeros it claims.
func TestMalformedElidedFrameIsStickyError(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"cut inside the lengths", join(triple(2, 3, "ab"), []byte{0, 0, 0})},
		{"literal longer than the body", triple(5, 0, "abcd")},
		{"literal length all ones", triple(1<<32-1, 0, "abcd")},
		{"zero run past the frame bound", triple(1, maxFrame, "a")},
		{"zero length all ones", triple(0, 1<<32-1, "")},
		{"triples that sum past the frame bound", join(triple(0, maxFrame/2, ""), triple(1, maxFrame/2, "a"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv, c2s, _ := memPair(t, testKey(t))
			first := sealed(t, cli, c2s, "zero")[0]
			bad := sealAs(cli, elidedBit|uint32(len(tc.body)), tc.body)
			c2s.Write(join(first, bad, sealed(t, cli, c2s, "after")[0]))
			c2s.close()
			readString(t, srv, "zero")
			readsFail(t, srv, nil)
			if n := len(srv.r.buf); n > minBuf {
				t.Errorf("receive buffer grew to %d bytes on a bad frame", n)
			}
		})
	}
	// The bound itself is allowed, from a hand-built frame too.
	cli, srv, c2s, _ := memPair(t, testKey(t))
	body := join(triple(2, maxFrame-3, "ab"), triple(1, 0, "c"))
	c2s.Write(sealAs(cli, elidedBit|uint32(len(body)), body))
	got := make([]byte, maxFrame)
	if _, err := io.ReadFull(srv, got); err != nil || string(got[:2]) != "ab" || got[maxFrame-1] != 'c' ||
		!bytes.Equal(got[2:maxFrame-1], make([]byte, maxFrame-3)) {
		t.Errorf("a frame that expands to exactly %d bytes: err=%v", maxFrame, err)
	}
}

// FuzzElide takes its input both ways. As a chunk to send: elide then
// expand is the identity. As the body of an elided frame from a peer that
// holds the key: it is refused, or it expands to what expandedLen said,
// never past maxFrame — and neither panics. Seeds with long zero runs are
// added here (the fuzzer seldom finds 512 zeros by itself); hand-built
// triples are in testdata/fuzz/FuzzElide.
func FuzzElide(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	f.Add(make([]byte, 3*sector))
	f.Add(mixedChunk(rng, 8*sector))
	f.Add(elide(nil, mixedChunk(rng, 8*sector)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFrame {
			data = data[:maxFrame]
		}
		checkElide(t, data)
		n, err := expandedLen(data)
		if err != nil {
			return
		}
		if n > maxFrame {
			t.Fatalf("expandedLen accepted a body that expands to %d bytes", n)
		}
		if got := len(expand(data, 1<<16)); got != n {
			t.Fatalf("body expands to %d bytes, expandedLen said %d", got, n)
		}
	})
}
