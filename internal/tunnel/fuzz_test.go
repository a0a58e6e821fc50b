package tunnel

import (
	"bytes"
	"errors"
	"testing"
)

// helloThen is the raw connection of a responder whose peer sent a
// valid hello followed by data; what the responder writes is dropped.
func helloThen(data []byte) memConn {
	in := newWire()
	in.Write(magic[:])
	in.Write(make([]byte, nonceSize))
	in.Write(data)
	in.close()
	return memConn{in: in, out: newWire()}
}

// FuzzConnRead feeds arbitrary bytes to a Conn after a valid handshake.
// The sender holds no key, so nothing it sends may come out as
// plaintext, and nothing may make the Conn buffer more than one
// maximal frame. Seeds are in testdata/fuzz/FuzzConnRead.
func FuzzConnRead(f *testing.F) {
	key := make([]byte, KeySize)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Server(helloThen(data), key)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		var first error
		for i := 0; i < 4; i++ {
			n, err := c.Read(buf)
			if n != 0 || err == nil {
				t.Fatalf("read %d returned %d bytes, err %v, from a keyless sender", i, n, err)
			}
			if first == nil {
				first = err
			}
			if err != first {
				t.Fatalf("read %d: %v after %v", i, err, first)
			}
		}
		if n := cap(c.r.buf); n > maxBuf {
			t.Fatalf("receive buffer grew to %d bytes, bound is %d", n, maxBuf)
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to both roles as the peer's half
// of the handshake: a Conn comes back only for a well-formed hello, and
// every refusal is ErrHandshake. Seeds are in testdata/fuzz/FuzzHandshake.
func FuzzHandshake(f *testing.F) {
	key := make([]byte, KeySize)
	f.Fuzz(func(t *testing.T, data []byte) {
		wellFormed := len(data) >= len(magic)+nonceSize && bytes.HasPrefix(data, magic[:])
		for name, role := range roles {
			in := newWire()
			in.Write(data)
			in.close()
			c, err := role(memConn{in: in, out: newWire()}, key)
			switch {
			case wellFormed && (c == nil || err != nil):
				t.Fatalf("%s refused a well-formed hello: %v", name, err)
			case !wellFormed && (c != nil || !errors.Is(err, ErrHandshake)):
				t.Fatalf("%s: conn=%v err=%v for a malformed hello, want ErrHandshake", name, c, err)
			}
		}
	})
}
