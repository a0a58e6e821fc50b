package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadIndexWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Dir = dir
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAD}, 512)
	for i := uint64(0); i < 8; i++ {
		if err := c1.Put(fhA, i, payload, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A "restarted proxy": new Cache over the same directory.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		data, ok := c2.Get(fhA, i)
		if !ok {
			t.Fatalf("block %d cold after restart", i)
		}
		if !bytes.Equal(data, payload) {
			t.Fatalf("block %d corrupted after restart", i)
		}
	}
	if st := c2.Stats(); st.Hits != 8 {
		t.Errorf("hits = %d", st.Hits)
	}
}

func TestSaveIndexRefusesDirty(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Put(fhA, 0, []byte("dirty"), true)
	c.Put(fhA, 1, []byte("dirty"), true)
	err := c.SaveIndex()
	if err == nil {
		t.Fatal("SaveIndex with dirty frames succeeded")
	}
	// The error is actionable: it carries the dirty count and one
	// example block so the operator knows what is unflushed.
	msg := err.Error()
	if !strings.Contains(msg, "2 dirty frame(s)") {
		t.Errorf("error lacks dirty count: %v", err)
	}
	if !strings.Contains(msg, "fh") || !strings.Contains(msg, "block") {
		t.Errorf("error lacks example block: %v", err)
	}
}

func TestLoadIndexNoSnapshot(t *testing.T) {
	c := newTestCache(t, smallConfig())
	if err := c.LoadIndex(); err != nil {
		t.Errorf("LoadIndex without snapshot: %v", err)
	}
}

func TestLoadIndexGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Dir = dir
	c1, _ := New(cfg)
	c1.Put(fhA, 0, []byte("x"), false)
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	cfg2 := cfg
	cfg2.BlockSize = 1024 // different frame layout
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadIndex(); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestLoadIndexCorrupt(t *testing.T) {
	// A corrupt snapshot must not keep the proxy down: LoadIndex logs,
	// deletes it, and starts cold.
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Dir = dir
	c1, _ := New(cfg)
	c1.SaveIndex()
	c1.Close()
	if err := writeFileInDir(dir, indexFileName, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(cfg)
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatalf("corrupt index should cold-start, got error: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, indexFileName)); !os.IsNotExist(err) {
		t.Error("corrupt snapshot not deleted on cold start")
	}
}

func TestLoadIndexTruncated(t *testing.T) {
	// A snapshot torn mid-write (e.g. by a pre-fsync crash of an older
	// writer) is also a cold start, not a fatal error.
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Dir = dir
	c1, _ := New(cfg)
	payload := bytes.Repeat([]byte{0x5A}, 512)
	for i := uint64(0); i < 4; i++ {
		if err := c1.Put(fhA, i, payload, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	// Truncate the snapshot to half its length.
	path := filepath.Join(dir, indexFileName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0644); err != nil {
		t.Fatal(err)
	}
	c2, _ := New(cfg)
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatalf("truncated index should cold-start, got error: %v", err)
	}
	if _, ok := c2.Get(fhA, 0); ok {
		t.Error("cold-started cache served a block")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated snapshot not deleted on cold start")
	}
}

func TestSaveLoadEvictionStateSurvives(t *testing.T) {
	// LRU ordering survives the restart: the clock is restored so new
	// insertions do not immediately evict recently-used frames.
	dir := t.TempDir()
	cfg := Config{Dir: dir, Banks: 1, SetsPerBank: 1, Assoc: 2, BlockSize: 64, Policy: WriteThrough}
	c1, _ := New(cfg)
	c1.Put(fhA, 0, []byte("old"), false)
	c1.Put(fhA, 1, []byte("new"), false)
	c1.Get(fhA, 1) // block 1 most recent
	c1.SaveIndex()
	c1.Close()

	c2, _ := New(cfg)
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	c2.Put(fhA, 2, []byte("evictor"), false)
	if _, ok := c2.Get(fhA, 1); !ok {
		t.Error("most-recent block evicted after restart")
	}
	if _, ok := c2.Get(fhA, 0); ok {
		t.Error("LRU block survived eviction after restart")
	}
}

func writeFileInDir(dir, name string, data []byte) error {
	return os.WriteFile(dir+"/"+name, data, 0644)
}

// TestLoadIndexInconsistentStartsCold: a snapshot whose frames the stripe
// index could not describe — a frame named twice, a block named twice, a
// frame outside its block's set, a frame longer than a block — starts the
// cache cold, as a corrupt one does. Loaded, a frame named twice left
// index[A] at a frame holding B, and the next Put of A spun for ever with
// the stripe lock held: each case runs under a deadline.
func TestLoadIndexInconsistentStartsCold(t *testing.T) {
	cfg := smallConfig()
	sets := uint64(cfg.Banks * cfg.SetsPerBank)
	for _, tc := range []struct {
		name  string
		spoil func(idx *persistedIndex)
	}{
		{"frame named twice", func(idx *persistedIndex) {
			b := idx.Frames[0]
			b.Block += sets // the same set as block A
			idx.Frames = append(idx.Frames, b)
		}},
		{"block named twice", func(idx *persistedIndex) {
			b := idx.Frames[0]
			b.Idx ^= 1 // the other frame of the set
			idx.Frames = append(idx.Frames, b)
		}},
		{"frame outside its set", func(idx *persistedIndex) {
			idx.Frames[0].Idx = (idx.Frames[0].Idx + cfg.Assoc) % (int(sets) * cfg.Assoc)
		}},
		{"frame longer than a block", func(idx *persistedIndex) {
			idx.Frames[0].Size = uint32(cfg.BlockSize + 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.Dir = t.TempDir()
			c1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.Put(fhA, 0, bytes.Repeat([]byte{0xA}, 512), false); err != nil {
				t.Fatal(err)
			}
			if err := c1.SaveIndex(); err != nil {
				t.Fatal(err)
			}
			c1.Close()
			path := filepath.Join(cfg.Dir, indexFileName)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var idx persistedIndex
			if err := json.Unmarshal(blob, &idx); err != nil {
				t.Fatal(err)
			}
			tc.spoil(&idx)
			if blob, err = json.Marshal(&idx); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			c2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			withDeadline(t, func() {
				if err := c2.LoadIndex(); err != nil {
					t.Errorf("an inconsistent index should cold-start, got error: %v", err)
				}
				if _, ok := c2.Get(fhA, 0); ok {
					t.Error("a cold-started cache served a block")
				}
				if err := c2.Put(fhA, 0, []byte("fresh"), false); err != nil {
					t.Error(err)
				}
				if got, ok := c2.Get(fhA, 0); !ok || string(got) != "fresh" {
					t.Errorf("Get after Put = %q, %v", got, ok)
				}
			})
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("inconsistent snapshot not deleted on cold start")
			}
		})
	}
}

// withDeadline runs f and fails the test if it has not returned within
// five seconds (a goroutine stuck in f is left behind).
func withDeadline(t testing.TB, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("did not return within 5s")
	}
}
