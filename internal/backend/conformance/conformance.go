// Package conformance is the executable contract for backend.Backend
// implementations. Both bundled backends (nfs3be over a live RPC
// server, objstore over an in-memory store) must pass the same suite,
// so the proxy can treat them interchangeably: byte-range semantics,
// EOF behavior, durable writes, and — critically — the error taxonomy
// the circuit breaker and write-back machinery dispatch on.
package conformance

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/nfs3"
)

// Fixture is one backend instance under test, built fresh per subtest.
type Fixture struct {
	// B is the backend, with File already holding Content.
	B    backend.Backend
	File backend.FileID
	// Content is the file's initial bytes (echoed back by the maker so
	// the suite can size reads off the real fixture).
	Content []byte

	// SetJukebox toggles transient-failure injection on data calls
	// (ClassRetriable). Nil skips the jukebox subtest.
	SetJukebox func(on bool)

	// KillTransport makes the backend unreachable (ClassUnavailable).
	// Irreversible; called last in its subtest. Nil skips the subtest.
	KillTransport func()
}

// Maker builds a fresh fixture whose File contains content. Register
// cleanup with t.Cleanup.
type Maker func(t *testing.T, content []byte) *Fixture

// content builds the deterministic test file: every byte derived from
// its offset, so any misplaced block is caught by a plain compare.
func content(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	return data
}

const fileSize = 40960 // 5 blocks of 8 KiB

// Run drives the conformance suite against fixtures built by mk.
func Run(t *testing.T, mk Maker) {
	t.Run("ReadFull", func(t *testing.T) {
		f := mk(t, content(fileSize))
		r, err := f.B.Read(f.File, 0, uint32(len(f.Content)+16), backend.CallOpts{})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(r.Data, f.Content) {
			t.Errorf("read returned %d bytes, want %d matching bytes", len(r.Data), len(f.Content))
		}
		if !r.EOF {
			t.Error("read to end did not report EOF")
		}
	})

	t.Run("ReadPartial", func(t *testing.T) {
		f := mk(t, content(fileSize))
		const off, count = 8192, 8192
		r, err := f.B.Read(f.File, off, count, backend.CallOpts{})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(r.Data, f.Content[off:off+count]) {
			t.Error("partial read returned wrong bytes")
		}
		if r.EOF {
			t.Error("mid-file read reported EOF")
		}
	})

	t.Run("ReadPastEOF", func(t *testing.T) {
		f := mk(t, content(fileSize))
		r, err := f.B.Read(f.File, uint64(len(f.Content))+8192, 8192, backend.CallOpts{})
		if err != nil {
			t.Fatalf("read past EOF must not error, got %v", err)
		}
		if len(r.Data) != 0 || !r.EOF {
			t.Errorf("read past EOF: %d bytes, EOF=%v; want empty + EOF", len(r.Data), r.EOF)
		}
	})

	t.Run("ReadShortAtEOF", func(t *testing.T) {
		f := mk(t, content(fileSize))
		off := uint64(len(f.Content) - 100)
		r, err := f.B.Read(f.File, off, 8192, backend.CallOpts{})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(r.Data, f.Content[off:]) {
			t.Errorf("short read at EOF returned %d bytes, want 100", len(r.Data))
		}
		if !r.EOF {
			t.Error("read straddling EOF did not report EOF")
		}
	})

	// A caching proxy misses in runs: one Read of up to nfs3.MaxTransfer
	// bytes across block boundaries, whose reply it cuts into blocks.
	t.Run("ReadRunSpansBlocks", func(t *testing.T) {
		f := mk(t, content(fileSize))
		for _, tc := range []struct {
			off  uint64
			want int
			eof  bool
		}{
			{0, nfs3.MaxTransfer, false},    // whole run inside the file
			{8192, nfs3.MaxTransfer, true},  // ends exactly at the end of the file
			{16384, fileSize - 16384, true}, // cut short by it
		} {
			r, err := f.B.Read(f.File, tc.off, nfs3.MaxTransfer, backend.CallOpts{})
			if err != nil {
				t.Fatalf("read of a run at %d: %v", tc.off, err)
			}
			if !bytes.Equal(r.Data, f.Content[tc.off:tc.off+uint64(tc.want)]) {
				t.Errorf("run at %d: %d bytes, want the file's %d", tc.off, len(r.Data), tc.want)
			}
			if r.EOF != tc.eof {
				t.Errorf("run at %d: EOF=%v, want %v", tc.off, r.EOF, tc.eof)
			}
			if r.Attr.Known() && r.Attr.Size != fileSize {
				t.Errorf("run at %d: post-op size %d, want %d", tc.off, r.Attr.Size, fileSize)
			}
			r.Release()
		}
	})

	t.Run("GetAttrSize", func(t *testing.T) {
		f := mk(t, content(fileSize))
		attr, err := f.B.GetAttr(f.File, backend.CallOpts{})
		if err != nil {
			t.Fatalf("getattr: %v", err)
		}
		if attr.Size != uint64(len(f.Content)) {
			t.Errorf("size = %d, want %d", attr.Size, len(f.Content))
		}
	})

	t.Run("WriteReadbackCommit", func(t *testing.T) {
		f := mk(t, content(fileSize))
		// Overwrite a range that straddles a block boundary, then
		// extend the file past its old end.
		patch := bytes.Repeat([]byte{0xC3}, 4096)
		if _, err := f.B.Write(f.File, 8192-2048, patch, backend.CallOpts{}); err != nil {
			t.Fatalf("write: %v", err)
		}
		tail := bytes.Repeat([]byte{0x5E}, 3000)
		growOff := uint64(len(f.Content))
		if _, err := f.B.Write(f.File, growOff, tail, backend.CallOpts{}); err != nil {
			t.Fatalf("extending write: %v", err)
		}
		if err := f.B.Commit(f.File, backend.CallOpts{}); err != nil {
			t.Fatalf("commit: %v", err)
		}
		attr, err := f.B.GetAttr(f.File, backend.CallOpts{})
		if err != nil {
			t.Fatalf("getattr: %v", err)
		}
		if want := growOff + uint64(len(tail)); attr.Size != want {
			t.Errorf("size after extend = %d, want %d", attr.Size, want)
		}
		r, err := f.B.Read(f.File, 8192-2048, 4096, backend.CallOpts{})
		if err != nil || !bytes.Equal(r.Data, patch) {
			t.Errorf("patched range readback: err=%v match=%v", err, bytes.Equal(r.Data, patch))
		}
		r, err = f.B.Read(f.File, growOff, uint32(len(tail)), backend.CallOpts{})
		if err != nil || !bytes.Equal(r.Data, tail) {
			t.Errorf("extended range readback: err=%v match=%v", err, bytes.Equal(r.Data, tail))
		}
		// Untouched bytes must survive both writes.
		r, err = f.B.Read(f.File, 16384, 8192, backend.CallOpts{})
		if err != nil || !bytes.Equal(r.Data, f.Content[16384:16384+8192]) {
			t.Errorf("untouched range corrupted by writes: err=%v", err)
		}
	})

	t.Run("ConcurrentDisjointWrites", func(t *testing.T) {
		// The proxy's flush pipeline has up to eight dirty runs
		// of one file in flight at once; every one of those durable
		// writes must survive, whatever the interleaving.
		f := mk(t, content(fileSize))
		const writers, rounds = 5, 12
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					patch := bytes.Repeat([]byte{0xA0 + byte(w)}, 8192)
					if _, err := f.B.Write(f.File, uint64(w)*8192, patch, backend.CallOpts{}); err != nil {
						t.Errorf("writer %d round %d: %v", w, r, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := f.B.Commit(f.File, backend.CallOpts{}); err != nil {
			t.Fatalf("commit: %v", err)
		}
		for w := 0; w < writers; w++ {
			r, err := f.B.Read(f.File, uint64(w)*8192, 8192, backend.CallOpts{})
			if err != nil {
				t.Fatalf("readback block %d: %v", w, err)
			}
			want := bytes.Repeat([]byte{0xA0 + byte(w)}, 8192)
			if !bytes.Equal(r.Data, want) {
				t.Errorf("block %d lost a concurrent write (got %x..., want %x...)", w, r.Data[:4], want[:4])
			}
		}
	})

	t.Run("Probe", func(t *testing.T) {
		f := mk(t, content(fileSize))
		if err := f.B.Probe(); err != nil {
			t.Errorf("probe on healthy backend: %v", err)
		}
		if f.B.Caps().Name == "" {
			t.Error("Caps().Name is empty")
		}
	})

	t.Run("JukeboxIsRetriable", func(t *testing.T) {
		f := mk(t, content(fileSize))
		if f.SetJukebox == nil {
			t.Skip("fixture has no jukebox injection")
		}
		f.SetJukebox(true)
		_, err := f.B.Read(f.File, 0, 8192, backend.CallOpts{})
		if err == nil {
			t.Fatal("read succeeded under jukebox injection")
		}
		if c := backend.Classify(err); c != backend.ClassRetriable {
			t.Errorf("jukebox classified %v, want retriable (err: %v)", c, err)
		}
		if _, werr := f.B.Write(f.File, 0, make([]byte, 512), backend.CallOpts{}); werr == nil {
			t.Error("write succeeded under jukebox injection")
		} else if c := backend.Classify(werr); c != backend.ClassRetriable {
			t.Errorf("jukebox write classified %v, want retriable", c)
		}
		f.SetJukebox(false)
		if _, err := f.B.Read(f.File, 0, 8192, backend.CallOpts{}); err != nil {
			t.Errorf("read after jukebox cleared: %v", err)
		}
	})

	t.Run("ExpiredDeadlineIsTimeout", func(t *testing.T) {
		f := mk(t, content(fileSize))
		opts := backend.CallOpts{Deadline: time.Now().Add(-time.Second)}
		_, err := f.B.Read(f.File, 0, 8192, opts)
		if err == nil {
			t.Fatal("read with expired deadline succeeded")
		}
		if c := backend.Classify(err); c != backend.ClassTimeout {
			t.Errorf("expired deadline classified %v, want timeout (err: %v)", c, err)
		}
	})

	t.Run("DeadTransportIsUnavailable", func(t *testing.T) {
		f := mk(t, content(fileSize))
		if f.KillTransport == nil {
			t.Skip("fixture has no transport kill")
		}
		f.KillTransport()
		_, err := f.B.Read(f.File, 0, 8192, backend.CallOpts{})
		if err == nil {
			t.Fatal("read succeeded over a dead transport")
		}
		if c := backend.Classify(err); c != backend.ClassUnavailable {
			t.Errorf("dead transport classified %v, want unavailable (err: %v)", c, err)
		}
		perr := f.B.Probe()
		if perr == nil {
			t.Error("probe reported a dead transport healthy")
		} else if c := backend.Classify(perr); c != backend.ClassUnavailable {
			// The class matters, not just presence: the breaker counts
			// only Unavailable, and the replicated backend fails over on
			// it. A misclassified probe error silently disables both.
			t.Errorf("dead-transport probe classified %v, want unavailable (err: %v)", c, perr)
		}
	})
}
