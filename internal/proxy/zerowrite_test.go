package proxy

import (
	"sync"
	"testing"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
)

// TestWriteToZeroMappedBlockReadsBack: dirty data wins over the zero map.
// A block the session has written is never again answered from the map —
// not alone, not at the trimmed edge of a multi-block READ, not once the
// cache has let the frame go, and not when the WRITE came before the
// file's first READ fetched the map.
func TestWriteToZeroMappedBlockReadsBack(t *testing.T) {
	for _, policy := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
		for _, mapFirst := range []bool{true, false} {
			name := map[cache.Policy]string{cache.WriteBack: "write-back", cache.WriteThrough: "write-through"}[policy]
			if !mapFirst {
				name += ", written before the map is read"
			}
			t.Run(name, func(t *testing.T) {
				e := runChain(t, 16*runBS, chainSpec{cache: runCache(policy)}).zeroMapped(t, 1, 4, 5) // Z N Z Z  N N Z Z  Z …
				if mapFirst {
					e.read(t, 1, 1)
				}
				e.write(t, 2, 0xCD)
				e.write(t, 3, 0xCE)
				e.read(t, 2, 1) // single block
				e.read(t, 0, 4) // the map trims 0; 2 and 3 are the session's
				e.read(t, 3, 1)
				e.read(t, 0, 2) // Z N: what was not written is still the map's
				if got := e.read(t, 6, 2); len(got) != 0 {
					t.Errorf("READ of unwritten zero blocks cost upstream %v", got)
				}

				// The frames go (write-back first): upstream has the bytes,
				// the map still must not answer for them.
				for _, b := range []uint64{2, 3} {
					if err := e.p.cfg.BlockCache.InvalidateBlock(e.fh, b); err != nil {
						t.Fatal(err)
					}
				}
				if got := e.read(t, 2, 1); !sameReads(got, upstreamRead{2, 2}) { // a scan: 1 is resident
					t.Errorf("READ of a written block the cache let go cost upstream %v, want 2+2: block 3 is not the map's to trim", got)
				}
				if got := e.read(t, 0, 4); len(got) != 0 {
					t.Errorf("READ 0+4 cost upstream %v, want nothing: 1 to 3 are resident, 0 is the map's", got)
				}
				// A written block at the end of a miss run is fetched with it,
				// and the zero block before it rides along.
				e.write(t, 7, 0xCF)
				if err := e.p.cfg.BlockCache.InvalidateBlock(e.fh, 7); err != nil {
					t.Fatal(err)
				}
				if got := e.read(t, 4, 1); !sameReads(got, upstreamRead{4, 4}) {
					t.Errorf("miss run from block 4 cost upstream %v, want 4+4", got)
				}
				if got := e.read(t, 4, 4); len(got) != 0 {
					t.Errorf("READ 4+4 after its miss run cost upstream %v", got)
				}
			})
		}
	}
}

// TestWritePastZeroMapEndReadsBack: the map knows the file at the size it
// was made for. Blocks a session writes past that end are the session's,
// read back alone or behind zero blocks the map answers, and the file
// ends after them.
func TestWritePastZeroMapEndReadsBack(t *testing.T) {
	e := runChain(t, 16*runBS, chainSpec{}).zeroMapped(t, 1)
	e.read(t, 1, 1) // fetches the map
	e.want = append(e.want, make([]byte, runBS)...)
	e.write(t, 16, 0xCD)
	e.read(t, 16, 1)
	e.read(t, 14, 3) // Z Z and the written block
	e.read(t, 16, 2) // the written block and past the end
}

// Readers of the map and the writers that take blocks out of it do not race.
func TestWriteToZeroMappedBlockConcurrent(t *testing.T) {
	e := runChain(t, 16*runBS, chainSpec{}).zeroMapped(t, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 4; b < 16; b++ {
			if _, _, err := e.nc.Write(e.fh, uint64(b*runBS), runContent(runBS, 1), nfs3.Unstable); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			for b := 0; b < 16; b += 4 {
				if _, _, err := e.nc.Read(e.fh, uint64(b*runBS), 4*runBS); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
}

// zeroMapped makes e's /disk.img zero but for the given blocks, with the
// zero map to say so beside it, and starts a session that sees them.
func (e *runEnv) zeroMapped(t *testing.T, nonZero ...int) *runEnv {
	t.Helper()
	clear(e.want)
	for _, b := range nonZero {
		copy(e.want[b*runBS:], runContent(runBS, byte(b)))
	}
	blob, err := meta.GenerateZeroMap(e.want, runBS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"/disk.img": e.want, "/" + meta.NameFor("disk.img"): blob} {
		if err := e.fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	e.newSession(t)
	return e
}

// TestUnzeroBoundedByTheMap: a zero map's FileSize says how many blocks it
// covers, its bitmap how many it holds. WRITEs far apart before the file's
// first READ leave one range for that READ to take out of the map, and a
// map that claims 2^62 bytes in one byte of bitmap must not make that a
// walk of 2^49 blocks under the file's meta-data lock.
func TestUnzeroBoundedByTheMap(t *testing.T) {
	e := runChain(t, 4*runBS, chainSpec{})
	blob, err := (&meta.Meta{FileSize: 1 << 62, BlockSize: 4096, ZeroMap: []byte{0xff}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.fs.WriteFile("/"+meta.NameFor("disk.img"), blob); err != nil {
		t.Fatal(err)
	}
	e.newSession(t)
	for _, off := range []uint64{0, 1 << 61} {
		if _, _, err := e.nc.Write(e.fh, off, runContent(runBS, 1), nfs3.Unstable); err != nil {
			t.Fatalf("WRITE at %d: %v", off, err)
		}
	}
	// The block far out must never go back to the origin's memory file.
	t.Cleanup(func() { e.p.cfg.BlockCache.MarkClean(e.fh, 1<<61/runBS) })
	done := make(chan error, 1)
	go func() {
		_, _, err := e.nc.Read(e.fh, runBS, runBS)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("READ of block 8: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first READ after the WRITEs did not return: the map's walk is not bounded by its bitmap")
	}
}
