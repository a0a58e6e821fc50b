package cache

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/nfs3"
)

// Concurrent torture tests for the striped cache: every public
// operation racing across overlapping sets, under -race in CI.

// blockPayload builds a self-validating block: a header naming the
// (fh, block, version) it was written as, padded to size.
func blockPayload(fh nfs3.FH, block uint64, version int, size int) []byte {
	buf := make([]byte, size)
	copy(buf, fmt.Sprintf("%s|%d|%d|", fh, block, version))
	for i := len(fh) + 16; i < size; i++ {
		buf[i] = byte(version)
	}
	return buf
}

// checkPayload verifies a read block belongs to (fh, block) — any
// version is acceptable, torn or mixed versions are not.
func checkPayload(t *testing.T, fh nfs3.FH, block uint64, data []byte) {
	t.Helper()
	prefix := fmt.Sprintf("%s|%d|", fh, block)
	if !bytes.HasPrefix(data, []byte(prefix)) {
		t.Errorf("block (%s,%d) returned foreign or torn data %q", fh, block, data[:min(32, len(data))])
	}
}

// expectedConcurrencyError reports whether an error is one the API
// documents for racing maintenance operations (never a correctness
// bug).
func expectedConcurrencyError(err error) bool {
	if err == nil {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "dirty frame(s)") ||
		strings.Contains(msg, "dirtied during flush")
}

func TestTortureConcurrentOps(t *testing.T) {
	cfg := Config{
		Banks: 2, SetsPerBank: 4, Assoc: 2, BlockSize: 256,
		Policy: WriteBack, stripes: 4, flushConcurrency: 4,
	}
	c := newTestCache(t, cfg)

	// Write-back sink: remembers the last propagated bytes per block.
	sink := newBlockSink(cfg.BlockSize)
	c.SetWriteBackFunc(sink.writeBack)

	// A handful of files × blocks: far more blocks than frames (16), so
	// evictions and set conflicts are constant.
	files := []nfs3.FH{nfs3.FH("fh-one"), nfs3.FH("fh-two"), nfs3.FH("fh-three")}
	const blocksPerFile = 16

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Uint64

	// Writers: Put dirty blocks with advancing versions.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			version := seed * 1000
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				version++
				fh := files[(seed+i)%len(files)]
				block := uint64((seed * 7 * i) % blocksPerFile)
				err := c.Put(fh, block, blockPayload(fh, block, version, cfg.BlockSize), true)
				if err != nil {
					t.Errorf("put (%s,%d): %v", fh, block, err)
					return
				}
				ops.Add(1)
			}
		}(w)
	}

	// Readers: Get and Peek, validating any hit's identity.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fh := files[(seed+i)%len(files)]
				block := uint64((seed*3 + i) % blocksPerFile)
				if data, ok := c.Get(fh, block); ok {
					checkPayload(t, fh, block, data)
				}
				c.Peek(fh, block)
				ops.Add(1)
			}
		}(r)
	}

	// Maintenance: WriteBackAll, Flush, SaveIndex, DirtyCount,
	// InvalidateBlock racing the data path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 5 {
			case 0:
				err = c.WriteBackAll()
			case 1:
				err = c.Flush()
			case 2:
				err = c.SaveIndex()
			case 3:
				c.DirtyCount()
			case 4:
				err = c.InvalidateBlock(files[0], uint64(i%blocksPerFile))
			}
			if !expectedConcurrencyError(err) {
				t.Errorf("maintenance op %d: %v", i%5, err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := ops.Load(); n < 100 {
		t.Fatalf("torture made little progress: %d ops", n)
	}
	// Settle and check nothing is stuck: a final write-back must drain
	// all dirty frames.
	if err := c.WriteBackAll(); err != nil {
		t.Fatalf("final write-back: %v", err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("%d dirty frames after final write-back", n)
	}
	// Every propagated block carried coherent content.
	for id, data := range sink.landed {
		checkPayload(t, nfs3.FH(id.FH), id.Block, data)
	}
}

// TestEvictionDuringPropagate interleaves WriteBackAll with dirtying
// Puts that force eviction write-backs from the same single set. The
// invariant: after the dust settles plus one final write-back, the
// sink holds the LAST version written for every block — no acknowledged
// write is lost, no stale version wins.
func TestEvictionDuringPropagate(t *testing.T) {
	cfg := Config{
		Banks: 1, SetsPerBank: 1, Assoc: 2, BlockSize: 256,
		Policy: WriteBack, stripes: 1, flushConcurrency: 2,
	}
	c := newTestCache(t, cfg)

	sink := newBlockSink(cfg.BlockSize)
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		time.Sleep(5 * time.Millisecond) // slow WAN: widen the race window
		return sink.writeBack(fh, off, data)
	})

	fh := nfs3.FH("single-set-file")
	// Track the last version Put for each block, and the order of every
	// Put (they are serialized under lastMu).
	last := make(map[uint64]int)
	putOrder := make(map[string]int) // payload -> position
	var lastMu sync.Mutex

	var wg sync.WaitGroup
	// Propagator: repeated WriteBackAll racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := c.WriteBackAll(); err != nil {
				t.Errorf("write-back all: %v", err)
			}
		}
	}()
	// Writers: both frames of the lone set stay contended; inserting
	// block i+2 must evict (and write back) an earlier dirty block.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				version := seed*100 + i
				block := uint64((seed + i) % 4)
				lastMu.Lock()
				payload := blockPayload(fh, block, version, cfg.BlockSize)
				if err := c.Put(fh, block, payload, true); err != nil {
					lastMu.Unlock()
					t.Errorf("put: %v", err)
					return
				}
				last[block] = version
				putOrder[string(payload)] = len(putOrder)
				lastMu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty frames after final write-back", n)
	}
	// The sink must hold exactly the final version of every block.
	for block, version := range last {
		got, ok := sink.block(fh, block)
		if !ok {
			t.Errorf("block %d never propagated", block)
			continue
		}
		want := blockPayload(fh, block, version, cfg.BlockSize)
		if !bytes.Equal(got, want) {
			t.Errorf("block %d: sink holds %q, want version %d", block, got[:24], version)
		}
	}
	// And no WRITE, run or eviction, landed a block's older version after
	// a newer one: the pins order every propagation of a block.
	newest := make(map[uint64]int)
	for _, call := range sink.calls {
		for b, data := call.off/uint64(cfg.BlockSize), call.data; len(data) > 0; b, data = b+1, data[cfg.BlockSize:] {
			pos, ok := putOrder[string(data[:cfg.BlockSize])]
			if !ok {
				t.Fatalf("block %d landed with unknown content %q", b, data[:24])
			}
			if pos < newest[b] {
				t.Errorf("block %d: Put #%d landed after Put #%d", b, pos, newest[b])
			}
			newest[b] = pos
		}
	}
}

// TestWriteWaitsForInFlightPropagation pins down the write-back
// ordering rule: a Put to a block whose bytes are on the wire waits
// for the propagation to finish (the flush holds a shared pin across
// the RPC; the writer needs the exclusive pin). This total order is
// what guarantees a stale WRITE can never land after a newer one.
func TestWriteWaitsForInFlightPropagation(t *testing.T) {
	cfg := Config{
		Banks: 1, SetsPerBank: 2, Assoc: 2, BlockSize: 256,
		Policy: WriteBack, stripes: 1, flushConcurrency: 1,
	}
	c := newTestCache(t, cfg)

	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sink := newBlockSink(cfg.BlockSize)
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		once.Do(func() {
			close(inFlight)
			<-release
		})
		return sink.writeBack(fh, off, data)
	})

	fh := nfs3.FH("ordering-file")
	if err := c.Put(fh, 0, blockPayload(fh, 0, 1, cfg.BlockSize), true); err != nil {
		t.Fatal(err)
	}
	wbDone := make(chan error, 1)
	go func() { wbDone <- c.WriteBackAll() }()
	<-inFlight

	// Version 1's bytes are on the wire; a Put of version 2 must not
	// complete until that RPC settles.
	putDone := make(chan error, 1)
	go func() { putDone <- c.Put(fh, 0, blockPayload(fh, 0, 2, cfg.BlockSize), true) }()
	select {
	case err := <-putDone:
		t.Fatalf("put completed during in-flight propagation of the same block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-wbDone; err != nil {
		t.Fatal(err)
	}
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	// Version 2 re-dirtied the frame after the flush cleared it; the
	// next round must push version 2.
	if n := c.DirtyCount(); n != 1 {
		t.Fatalf("re-dirtied frame not retained: %d dirty", n)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if got, _ := sink.block(fh, 0); !bytes.Equal(got, blockPayload(fh, 0, 2, cfg.BlockSize)) {
		t.Errorf("final sink content is not version 2: %q", got[:24])
	}
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("%d dirty frames after settling", n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
