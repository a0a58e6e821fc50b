package filechan

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"

	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/osfs"
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
	if err := PutFrom(conn, "/logs/vm.redo", bytes.NewReader(data), uint64(len(data)), true); err != nil {
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
	if !errors.Is(err, ErrRemote) || nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("err = %v (status %v), want ErrRemote with NFS3ERR_NOENT", err, nfs3.StatusOf(err))
	}
	// The connection must survive an error reply.
	fs.WriteFile("/present", []byte("x"))
	if _, err := Fetch(conn, "/present", false); err != nil {
		t.Errorf("channel unusable after error: %v", err)
	}
}

// A status carries the failure's NFS status across the channel: NOENT
// and STALE as themselves, any other as NFS3ERR_IO.
func TestStatusCarriesNFSStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want nfs3.Status
	}{
		{&nfs3.Error{Status: nfs3.ErrNoEnt, Op: "lookup img"}, nfs3.ErrNoEnt},
		{fmt.Errorf("relay: %w", &nfs3.Error{Status: nfs3.ErrStale}), nfs3.ErrStale},
		{&nfs3.Error{Status: nfs3.ErrIO}, nfs3.ErrIO},
		{&nfs3.Error{Status: nfs3.ErrNoSpc}, nfs3.ErrIO},
		{errors.New("source changed"), nfs3.ErrIO},
	} {
		err := readStatus(bytes.NewReader(appendStatus(nil, tc.err)))
		if !errors.Is(err, ErrRemote) || nfs3.StatusOf(err) != tc.want || !strings.HasSuffix(err.Error(), tc.err.Error()) {
			t.Errorf("%v came back as %v (status %v), want ErrRemote with %v", tc.err, err, nfs3.StatusOf(err), tc.want)
		}
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
	n, err := Copy(conn, "/golden/disk.vmdk")
	if err != nil || n != uint64(len(img)) {
		t.Errorf("copy: err=%v, %d bytes", err, n)
	}
}

// The body codec round-trips any contents, raw or gzipped, whatever the
// size of the writes that produce it.
func TestGzipHelpersRoundTrip(t *testing.T) {
	f := func(data []byte, compressed bool) bool {
		var wire bytes.Buffer
		if srcErr, err := sendBody(&wire, appendStatus(nil, nil), bytes.NewReader(data), uint64(len(data)), compressed); srcErr != nil || err != nil {
			return false
		}
		var out bytes.Buffer
		n, err := recvReply(bufio.NewReader(&wire), compressed, &out)
		return err == nil && n == uint64(len(data)) && bytes.Equal(out.Bytes(), data) && wire.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// recvReply reads a GET's reply from r into w.
func recvReply(r *bufio.Reader, compressed bool, w io.Writer) (uint64, error) {
	body, err := readReply(r, compressed)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, body)
	return uint64(n), err
}

// reply is a GET reply as a server would send it: OK, the declared size,
// payload in chunks of at most chunk bytes, the terminator and trailer.
func reply(declared uint64, payload []byte, chunk int, trailer error) []byte {
	b := appendStatus(nil, nil)
	b = binary.BigEndian.AppendUint64(b, declared)
	for len(payload) > 0 {
		k := min(chunk, len(payload))
		b = binary.BigEndian.AppendUint32(b, uint32(k))
		b = append(b, payload[:k]...)
		payload = payload[k:]
	}
	b = append(b, 0, 0, 0, 0)
	return appendStatus(b, trailer)
}

func decode(wire []byte, compressed bool) ([]byte, error) {
	var out bytes.Buffer
	if _, err := recvReply(bufio.NewReader(bytes.NewReader(wire)), compressed, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// A compressed reply decodes to exactly its declared size: a stream that
// is shorter or longer than declared, cut inside its gzip trailer, or
// closed by an error trailer is an error.
func TestFetchDeclaredSizeMismatch(t *testing.T) {
	data := bytes.Repeat([]byte("vm state "), 4000)
	z := mustGzip(t, data)
	size := uint64(len(data))
	for _, tc := range []struct {
		name string
		wire []byte
		ok   bool
	}{
		{"exact", reply(size, z, 1000, nil), true},
		{"stream longer than declared", reply(size-1, z, 1000, nil), false},
		{"stream shorter than declared", reply(size+1, z, 1000, nil), false},
		{"declared size out of reach", reply(maxFileSize, z, 1000, nil), false},
		{"declared size past the bound", reply(maxFileSize+1, z, 1000, nil), false},
		{"stream cut inside its gzip trailer", reply(size, z[:len(z)-3], 1000, nil), false},
		{"bytes after the gzip stream", reply(size, append(z[:len(z):len(z)], 0), 1000, nil), false},
		{"error trailer", reply(size, z, 1000, errors.New("source changed")), false},
		{"no trailer", reply(size, z, 1000, nil)[:len(reply(size, z, 1000, nil))-5], false},
	} {
		got, err := decode(tc.wire, true)
		if tc.ok && (err != nil || !bytes.Equal(got, data)) {
			t.Errorf("%s: err=%v, %d bytes", tc.name, err, len(got))
		}
		if !tc.ok && (err == nil || got != nil) {
			t.Errorf("%s: accepted (%d bytes)", tc.name, len(got))
		}
	}
	if got, err := decode(reply(0, mustGzip(t, nil), 1000, nil), true); err != nil || len(got) != 0 {
		t.Errorf("empty file: %d bytes, err=%v", len(got), err)
	}
	if got, err := decode(reply(0, nil, 1000, nil), false); err != nil || len(got) != 0 {
		t.Errorf("empty file, uncompressed: %d bytes, err=%v", len(got), err)
	}
	if _, err := decode(reply(size, z, 1000, errors.New("source changed")), true); !errors.Is(err, ErrRemote) {
		t.Errorf("an error trailer came back as %v, want ErrRemote", err)
	}
}

func mustGzip(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocated returns how many bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Every length a peer declares is checked before anything is allocated
// for it: a status message, a chunk, a declared size, a path.
func TestPeerDeclaredLengthsBounded(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	okStatus := appendStatus(nil, nil)
	size := binary.BigEndian.AppendUint64(nil, 100)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	replies := map[string][]byte{
		"status message":       cat([]byte{statusError}, huge, []byte("oops")),
		"chunk":                cat(okStatus, size, huge, []byte("data")),
		"trailer message":      cat(okStatus, binary.BigEndian.AppendUint64(nil, 0), []byte{0, 0, 0, 0, statusError}, huge),
		"declared size":        cat(okStatus, binary.BigEndian.AppendUint64(nil, 1<<62), []byte{0, 0, 0, 0}),
		"chunk past 1 MiB + 1": cat(okStatus, size, binary.BigEndian.AppendUint32(nil, maxChunk+1), make([]byte, 100)),
	}
	for name, wire := range replies {
		for _, compressed := range []bool{false, true} {
			var err error
			if n := allocated(func() { _, err = decode(wire, compressed) }); n > 64<<10 {
				t.Errorf("reply with a huge %s (compressed %v): %d bytes allocated", name, compressed, n)
			}
			if err == nil {
				t.Errorf("reply with a huge %s (compressed %v) accepted", name, compressed)
			}
		}
	}

	// Fetch, which keeps the file in memory, takes a declared 4 GiB on
	// the peer's word only up to fetchTrusted.
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		readRequest(server)
		server.Write(cat(okStatus, binary.BigEndian.AppendUint64(nil, maxFileSize), []byte{0, 0, 0, 3}, []byte("abc")))
	}()
	var err error
	if n := allocated(func() { _, err = Fetch(client, "/f", false) }); n > fetchTrusted+64<<10 || err == nil {
		t.Errorf("Fetch of a reply declaring 4 GiB and sending 3 bytes: %d bytes allocated, err=%v", n, err)
	}
	client.Close()

	put := appendRequest(nil, opPut, false, "/f")
	requests := map[string][]byte{
		"path":          cat([]byte{opGet, 0}, huge, []byte("/f")),
		"declared size": cat(put, binary.BigEndian.AppendUint64(nil, 1<<62), []byte{0, 0, 0, 0}),
		"chunk":         cat(put, size, huge, []byte("data")),
	}
	for name, wire := range requests {
		fs := memfs.New()
		fs.WriteFile("/f", []byte("old"))
		var out bytes.Buffer
		if n := allocated(func() { NewServer(fs).serve(bufio.NewReader(bytes.NewReader(wire)), &out) }); n > 64<<10 {
			t.Errorf("request with a huge %s: %d bytes allocated", name, n)
		}
		if got, _ := fs.ReadFile("/f"); string(got) != "old" {
			t.Errorf("request with a huge %s changed the file to %q", name, got)
		}
	}
}

// stores returns the two FileStores the servers run on, each holding
// path with contents, and the directory osfs exports.
func stores(t *testing.T, path string, contents []byte) (map[string]FileStore, string) {
	mem := memfs.New()
	mem.WriteFile(path, contents)
	dir := t.TempDir()
	host := filepath.Join(dir, path)
	os.MkdirAll(filepath.Dir(host), 0755)
	if err := os.WriteFile(host, contents, 0644); err != nil {
		t.Fatal(err)
	}
	disk, err := osfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FileStore{"memfs": mem, "osfs": disk}, dir
}

func readAll(t *testing.T, store FileStore, path string) []byte {
	t.Helper()
	r, size, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil || uint64(len(data)) != size {
		t.Fatalf("read %d of %d bytes: %v", len(data), size, err)
	}
	return data
}

// A PUT whose connection drops anywhere in its body leaves the stored
// copy as it was, and no temporary file beside it.
func TestPutDroppedMidStreamKeepsOrigin(t *testing.T) {
	old := []byte("the origin's copy")
	data := bytes.Repeat([]byte("new contents "), 20000)
	for _, compressed := range []bool{false, true} {
		var wire bytes.Buffer
		srcErr, err := sendBody(&wire, appendRequest(nil, opPut, compressed, "/vm/mem.vmss"), bytes.NewReader(data), uint64(len(data)), compressed)
		if srcErr != nil || err != nil {
			t.Fatal(srcErr, err)
		}
		full := wire.Bytes()
		all, dir := stores(t, "/vm/mem.vmss", old)
		for name, store := range all {
			for _, cut := range []int{20, 30, len(full) / 2, len(full) - 6, len(full) - 1} {
				var out bytes.Buffer
				NewServer(store).serve(bufio.NewReader(bytes.NewReader(full[:cut])), &out)
				if got := readAll(t, store, "/vm/mem.vmss"); !bytes.Equal(got, old) {
					t.Errorf("%s, compressed %v: a PUT cut at %d of %d bytes changed the file (%d bytes)", name, compressed, cut, len(full), len(got))
				}
			}
			if files, _ := os.ReadDir(filepath.Join(dir, "vm")); len(files) != 1 {
				t.Errorf("%d files beside the osfs copy, want none", len(files)-1)
			}
			var out bytes.Buffer
			NewServer(store).serve(bufio.NewReader(bytes.NewReader(full)), &out)
			if got := readAll(t, store, "/vm/mem.vmss"); !bytes.Equal(got, data) {
				t.Errorf("%s, compressed %v: the whole PUT stored %d bytes", name, compressed, len(got))
			}
			if err := readStatus(&out); err != nil {
				t.Errorf("%s: status %v", name, err)
			}
		}
	}
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

// changing is a FileStore whose file is rewritten by change after the
// first read of it.
type changing struct {
	FileStore
	change func()
}

func (c changing) OpenFile(path string) (io.ReadCloser, uint64, error) {
	r, size, err := c.FileStore.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	return &changeAfterRead{ReadCloser: r, change: c.change}, size, nil
}

type changeAfterRead struct {
	io.ReadCloser
	change func()
}

func (r *changeAfterRead) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p[:min(len(p), 4096)])
	if r.change != nil {
		r.change()
		r.change = nil
	}
	return n, err
}

// failing is a FileStore whose reader fails after a few bytes.
type failing struct{ FileStore }

var errDisk = errors.New("disk read error")

func (f failing) OpenFile(path string) (io.ReadCloser, uint64, error) {
	r, size, err := f.FileStore.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(io.LimitReader(r, 5000), iotest.ErrReader(errDisk)), r}, size, nil
}

// A source that changes or fails while it streams fails the fetch with
// the server's account of it, and the connection stays usable.
func TestSourceFailureMidStream(t *testing.T) {
	img := bytes.Repeat([]byte("golden image "), 10000)
	for _, compressed := range []bool{false, true} {
		all, dir := stores(t, "/img", img)
		mem := all["memfs"].(*memfs.FS)
		cases := map[string]FileStore{
			"memfs rewritten": changing{mem, func() { mem.WriteFile("/img", bytes.ToUpper(img)) }},
			"memfs grown":     changing{mem, func() { mem.WriteFile("/img", append(img[:len(img):len(img)], 'x')) }},
			"osfs grown": changing{all["osfs"], func() {
				f, _ := os.OpenFile(filepath.Join(dir, "img"), os.O_APPEND|os.O_WRONLY, 0)
				f.Write([]byte("x"))
				f.Close()
			}},
			"memfs read error": failing{mem},
			"osfs read error":  failing{all["osfs"]},
		}
		for name, store := range cases {
			mem.WriteFile("/img", img)
			conn := dial(t, startServer(t, store))
			if got, err := Fetch(conn, "/img", compressed); !errors.Is(err, ErrRemote) || got != nil {
				t.Errorf("%s, compressed %v: %d bytes, err=%v; want ErrRemote", name, compressed, len(got), err)
			}
			if _, err := Fetch(conn, "/missing", compressed); !errors.Is(err, ErrRemote) {
				t.Errorf("%s, compressed %v: connection out of step after the failure: %v", name, compressed, err)
			}
		}
	}
}

// The reply's status and size go out with its first chunk, and the
// terminator and trailer with its last: a file of k chunks is k writes.
func TestReplyWrites(t *testing.T) {
	for _, size := range []int{0, 1000, sendChunk, sendChunk + 1, 5 * sendChunk / 2} {
		data := make([]byte, size)
		w := &countWrites{}
		srcErr, err := sendBody(w, appendStatus(nil, nil), bytes.NewReader(data), uint64(size), false)
		if srcErr != nil || err != nil {
			t.Fatal(srcErr, err)
		}
		want := max(1, (size+sendChunk-1)/sendChunk)
		if w.n != want {
			t.Errorf("%d bytes: %d writes, want %d", size, w.n, want)
		}
		if w.max > maxChunk {
			t.Errorf("%d bytes: a write of %d bytes, more than one 1 MiB tunnel frame", size, w.max)
		}
	}
}

type countWrites struct{ n, max int }

func (c *countWrites) Write(p []byte) (int, error) {
	c.n++
	c.max = max(c.max, len(p))
	return len(p), nil
}

// memState is a memory state of size bytes, one page in twelve holding
// data, like the paper's 92% zero pages.
func memState(size int) []byte {
	img := make([]byte, size)
	rng := rand.New(rand.NewSource(1))
	for off := 0; off < size; off += 12 * 4096 {
		rng.Read(img[off : off+4096])
	}
	return img
}

// A compressed fetch into a file allocates the same whatever the file's
// size: nothing on either side of the channel grows with it.
func TestFetchAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	fs := memfs.New()
	fs.WriteFile("/8m.vmss", memState(8<<20))
	fs.WriteFile("/64m.vmss", memState(64<<20))
	conn := dial(t, startServer(t, fs))
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	fetch := func(path string) uint64 {
		var n uint64
		alloc := allocated(func() {
			out.Seek(0, io.SeekStart)
			if n, err = FetchTo(conn, path, true, out); err != nil {
				t.Fatal(err)
			}
		})
		if size, _ := fs.Size(path); n != size {
			t.Fatalf("%s: %d of %d bytes", path, n, size)
		}
		return alloc
	}
	fetch("/8m.vmss") // first-use costs
	small, large := fetch("/8m.vmss"), fetch("/64m.vmss")
	t.Logf("allocated %d bytes fetching 8 MiB, %d fetching 64 MiB", small, large)
	if diff := int64(large) - int64(small); diff > 1<<20 || diff < -(1<<20) {
		t.Errorf("64 MiB fetch allocated %d bytes more than an 8 MiB one", diff)
	}
}
