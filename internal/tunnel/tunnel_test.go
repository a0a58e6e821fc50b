package tunnel

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
)

// pipePair establishes a tunnel over an in-process pipe.
func pipePair(t *testing.T, key []byte) (cli, srv *Conn) {
	t.Helper()
	a, b := net.Pipe()
	var wg sync.WaitGroup
	var cErr, sErr error
	wg.Add(2)
	go func() { defer wg.Done(); cli, cErr = Client(a, key) }()
	go func() { defer wg.Done(); srv, sErr = Server(b, key) }()
	wg.Wait()
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	return cli, srv
}

func testKey(t testing.TB) []byte {
	t.Helper()
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestRoundTrip(t *testing.T) {
	key := testKey(t)
	cli, srv := pipePair(t, key)
	defer cli.Close()
	defer srv.Close()
	msg := []byte("NFS RPC over a private channel")
	go cli.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("got %q", buf)
	}
}

func TestBidirectional(t *testing.T) {
	key := testKey(t)
	cli, srv := pipePair(t, key)
	defer cli.Close()
	defer srv.Close()
	go func() {
		buf := make([]byte, 4)
		io.ReadFull(srv, buf)
		srv.Write(append(buf, []byte("-ack")...))
	}()
	cli.Write([]byte("ping"))
	buf := make([]byte, 8)
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping-ack" {
		t.Errorf("got %q", buf)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	key := testKey(t)
	a, b := net.Pipe()
	// Capture raw bytes between the endpoints with a middle pipe.
	rawCli, rawSrvSide := a, b
	var captured bytes.Buffer
	c2, s2 := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := rawSrvSide.Read(buf)
			if n > 0 {
				captured.Write(buf[:n])
				c2.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	go io.Copy(rawSrvSide, c2) // reverse path: server -> client
	var wg sync.WaitGroup
	var cli, srv *Conn
	var cErr, sErr error
	wg.Add(2)
	go func() { defer wg.Done(); cli, cErr = Client(rawCli, key) }()
	go func() { defer wg.Done(); srv, sErr = Server(s2, key) }()
	wg.Wait()
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: %v %v", cErr, sErr)
	}
	defer cli.Close()
	defer srv.Close()
	secret := bytes.Repeat([]byte("TOPSECRET-VM-STATE"), 10)
	go cli.Write(secret)
	buf := make([]byte, len(secret))
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(captured.Bytes(), []byte("TOPSECRET")) {
		t.Error("plaintext leaked onto the wire")
	}
}

func TestLargeTransfer(t *testing.T) {
	key := testKey(t)
	cli, srv := pipePair(t, key)
	defer cli.Close()
	defer srv.Close()
	payload := make([]byte, 3*maxFrame+12345)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		if _, err := cli.Write(payload); err != nil {
			t.Error(err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large transfer corrupted")
	}
}

func TestWrongKeyFailsAuth(t *testing.T) {
	key1 := testKey(t)
	key2 := testKey(t)
	a, b := net.Pipe()
	var wg sync.WaitGroup
	var cli, srv *Conn
	wg.Add(2)
	go func() { defer wg.Done(); cli, _ = Client(a, key1) }()
	go func() { defer wg.Done(); srv, _ = Server(b, key2) }()
	wg.Wait()
	if cli == nil || srv == nil {
		t.Fatal("handshake did not complete")
	}
	defer cli.Close()
	defer srv.Close()
	go cli.Write([]byte("hello"))
	buf := make([]byte, 5)
	_, err := srv.Read(buf)
	if err != ErrAuth {
		t.Errorf("err = %v, want ErrAuth", err)
	}
}

func TestTamperedFrameFailsAuth(t *testing.T) {
	key := testKey(t)
	a, mid := net.Pipe()
	mid2, b := net.Pipe()
	// A man in the middle that flips one ciphertext bit.
	go func() {
		buf := make([]byte, 4096)
		first := true
		for {
			n, err := mid.Read(buf)
			if n > 0 {
				if !first && n > 10 {
					buf[6] ^= 0xff // flip a bit past the length header
				}
				first = false
				mid2.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	go func() { io.Copy(mid, mid2) }()
	var wg sync.WaitGroup
	var cli, srv *Conn
	wg.Add(2)
	go func() { defer wg.Done(); cli, _ = Client(a, key) }()
	go func() { defer wg.Done(); srv, _ = Server(b, key) }()
	wg.Wait()
	if cli == nil || srv == nil {
		t.Skip("handshake interfered with by tamper goroutine")
	}
	defer cli.Close()
	defer srv.Close()
	go cli.Write([]byte("sensitive"))
	_, err := srv.Read(make([]byte, 16))
	if err != ErrAuth {
		t.Errorf("err = %v, want ErrAuth", err)
	}
}

func TestBadKeySize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		Server(b, make([]byte, KeySize))
	}()
	if _, err := Client(a, []byte("short")); err == nil {
		t.Error("expected error for short key")
	}
}

func TestNewKeyUnique(t *testing.T) {
	k1, err1 := NewKey()
	k2, err2 := NewKey()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if bytes.Equal(k1, k2) {
		t.Error("two keys are identical")
	}
	if len(k1) != KeySize {
		t.Errorf("key size = %d", len(k1))
	}
}

func TestQuickRoundTripChunks(t *testing.T) {
	key := testKey(t)
	cli, srv := pipePair(t, key)
	defer cli.Close()
	defer srv.Close()
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		go cli.Write(data)
		got := make([]byte, len(data))
		if _, err := io.ReadFull(srv, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
