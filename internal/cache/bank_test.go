package cache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gvfs/internal/nfs3"
)

// A bank file cut short behind a live cache's back faults where the
// mapping reaches past its end. The fault is the I/O error a pread or a
// pwrite would have met, and the process survives it: a Get there is a
// miss and drops the frame, and a Put there fails.
func TestTruncatedBankIsAnIOError(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir, Banks: 1, SetsPerBank: 4, Assoc: 2, BlockSize: 4096, Policy: WriteBack})
	blocks := map[uint64][]byte{}
	for b := uint64(0); b < 4; b++ {
		blocks[b] = bytes.Repeat([]byte{byte(0x30 + b)}, 4096)
		if err := c.Put(fhA, b, blocks[b], false); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(filepath.Join(dir, "bank0000"), 0); err != nil {
		t.Fatal(err)
	}
	for b := range blocks {
		if _, ok := c.Get(fhA, b); ok {
			t.Errorf("block %d: a hit from a bank cut to nothing", b)
		}
		if cached, _ := c.Peek(fhA, b); cached {
			t.Errorf("block %d: still cached after its bank read failed", b)
		}
	}
	if err := c.Put(fhA, 9, blocks[0], false); !errors.Is(err, syscall.EIO) {
		t.Errorf("Put into a cut bank: %v, want an I/O error", err)
	}
	if cached, _ := c.Peek(fhA, 9); cached {
		t.Error("a failed Put left its block cached")
	}
}

// Close unmaps the banks only once the pins held across a write-back are
// released, and every call after it fails cleanly: Gets miss, Puts fail.
func TestCloseWaitsForPins(t *testing.T) {
	c := newTestCache(t, smallConfig())
	data := bytes.Repeat([]byte{0x5a}, 512)
	if err := c.Put(fhA, 0, data, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fhA, 1, data, false); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error {
		close(entered)
		<-release
		return nil
	})
	flushed := make(chan error, 1)
	go func() { flushed <- c.WriteBackAll() }()
	<-entered // block 0 is pinned shared across the call
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a write-back held a pin")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Errorf("write-back: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, ok := c.Get(fhA, 1); ok {
		t.Error("a hit after Close")
	}
	if err := c.Put(fhA, 2, data, false); err == nil {
		t.Error("a Put after Close succeeded")
	}
}

// Gets racing Close read the bytes that were put or miss; none reads an
// unmapped bank, and once Close has returned every Get misses.
func TestCloseRacesGets(t *testing.T) {
	c := newTestCache(t, smallConfig())
	const blocks = 16
	want := func(b uint64) []byte { return bytes.Repeat([]byte{byte(b)}, 512) }
	for b := uint64(0); b < blocks; b++ {
		if err := c.Put(fhA, b, want(b), false); err != nil {
			t.Fatal(err)
		}
	}
	var gets atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for b := uint64(0); ; b = (b + 1) % blocks {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := c.GetInto(fhA, b, buf); ok && !bytes.Equal(got, want(b)) {
					t.Errorf("block %d: wrong bytes", b)
				}
				gets.Add(1)
			}
		}()
	}
	for gets.Load() < 1000 {
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < blocks; b++ {
		if _, ok := c.Get(fhA, b); ok {
			t.Errorf("block %d: a hit after Close returned", b)
		}
	}
	close(stop)
	wg.Wait()
}
