package objstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gvfs/internal/backend"
)

// manifestJSON is a stored manifest of size bytes in blocks of bs, each
// block's hash hash.
func manifestJSON(size uint64, bs, blocks int, hash backend.Hash) []byte {
	raw := manifest{Size: size, BlockSize: bs, Blocks: make([]string, blocks)}
	for i := range raw.Blocks {
		raw.Blocks[i] = hash.String()
	}
	blob, err := json.Marshal(&raw)
	if err != nil {
		panic(err)
	}
	return blob
}

// TestManifestBoundsRefused: a manifest whose block size is past
// maxBlockSize, or whose block count is not its size in blocks, is
// corrupt: reading, writing or stating the file fails ClassIO instead of
// allocating what the manifest claims.
func TestManifestBoundsRefused(t *testing.T) {
	for name, blob := range map[string][]byte{
		"16 MiB blocks":          manifestJSON(16<<20, 16<<20, 1, backend.ZeroHash(16<<20)),
		"1 TiB in one block":     manifestJSON(1<<40, 4096, 1, backend.ZeroHash(4096)),
		"two blocks for 1 byte":  manifestJSON(1, 4096, 2, backend.ZeroHash(1)),
		"no blocks for 4 KiB":    manifestJSON(4096, 4096, 0, backend.Hash{}),
		"zero-sized blocks":      manifestJSON(0, 0, 0, backend.Hash{}),
		"negative-sized blocks":  manifestJSON(0, -1, 0, backend.Hash{}),
		"not a manifest at all":  []byte("{"),
		"a hash that is not hex": []byte(`{"size":1,"block_size":4096,"blocks":["zz"]}`),
	} {
		store := NewMemStore()
		b := New(store, 4096)
		if err := store.Put(manifestKey("/f"), blob); err != nil {
			t.Fatal(err)
		}
		if r, err := b.Read(backend.FileID("/f"), 0, 64<<10, backend.CallOpts{}); backend.Classify(err) != backend.ClassIO {
			t.Errorf("%s: Read = %d bytes, %v; want ClassIO", name, len(r.Data), err)
		}
		if _, err := b.Write(backend.FileID("/f"), 0, []byte("x"), backend.CallOpts{}); backend.Classify(err) != backend.ClassIO {
			t.Errorf("%s: Write: %v, want ClassIO", name, err)
		}
		if a, err := b.GetAttr(backend.FileID("/f"), backend.CallOpts{}); backend.Classify(err) != backend.ClassIO {
			t.Errorf("%s: GetAttr = size %d, %v; want ClassIO", name, a.Size, err)
		}
	}
	if b := New(NewMemStore(), 4*maxBlockSize); b.bs != maxBlockSize {
		t.Errorf("New with blocks of %d bytes made blocks of %d, want maxBlockSize", 4*maxBlockSize, b.bs)
	}
}

// FuzzManifest stores one blob as a file's manifest and drives the file
// through the backend: GETATTR, READ, WRITE, and a truncating CREATE.
// Nothing may panic; a blob that is not a manifest within the declared
// bounds fails every call ClassIO; a manifest that loads, saved again,
// loads as the same manifest; and the truncated file is empty. The seeds
// beside the two valid manifests are in testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	content := bytes.Repeat([]byte("golden image "), 1000)
	seed := New(NewMemStore(), 4096)
	if err := seed.CreateFile("/f", content); err != nil {
		f.Fatal(err)
	}
	valid, err := seed.store.Get(manifestKey("/f"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint32(0), uint16(8192))
	f.Add(valid, uint32(4000), uint16(300))
	f.Fuzz(func(t *testing.T, blob []byte, off uint32, count uint16) {
		store := NewMemStore()
		b := New(store, 4096)
		if err := b.CreateFile("/golden", content); err != nil { // block objects the blob may name
			t.Fatal(err)
		}
		if err := store.Put(manifestKey("/f"), blob); err != nil {
			t.Fatal(err)
		}
		var raw manifest
		bounded := json.Unmarshal(blob, &raw) == nil && raw.BlockSize > 0 && raw.BlockSize <= maxBlockSize &&
			uint64(len(raw.Blocks)) == blocksOf(raw.Size, raw.BlockSize)
		refused := func(op string, err error) {
			t.Helper()
			if !bounded && backend.Classify(err) != backend.ClassIO {
				t.Fatalf("%s of a file whose manifest is out of bounds: %v, want ClassIO\nmanifest: %q", op, err, blob)
			}
		}
		opts := backend.CallOpts{}
		_, err := b.GetAttr(backend.FileID("/f"), opts)
		refused("GetAttr", err)
		r, err := b.Read(backend.FileID("/f"), uint64(off), uint32(count), opts)
		refused("Read", err)
		if err == nil && len(r.Data) > int(count) {
			t.Fatalf("Read of %d bytes returned %d", count, len(r.Data))
		}
		if m, err := b.loadManifest("fuzz", "/f"); err == nil {
			if err := b.saveManifest("fuzz", "/saved", m); err != nil {
				t.Fatal(err)
			}
			again, err := New(store, 4096).loadManifest("fuzz", "/saved")
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("manifest saved again loads as %+v, %v; want %+v", again, err, m)
			}
		}
		_, err = b.Write(backend.FileID("/f"), uint64(off%(64<<10)), []byte("redo"), opts)
		refused("Write", err)

		if _, _, err := b.Create(backend.FileID("/"), "f", opts); err != nil {
			t.Fatalf("truncating Create: %v", err)
		}
		if a, err := b.GetAttr(backend.FileID("/f"), opts); err != nil || a.Size != 0 {
			t.Fatalf("truncated file: size %d, %v", a.Size, err)
		}
		if r, err := b.Read(backend.FileID("/f"), 0, 8192, opts); err != nil || len(r.Data) != 0 || !r.EOF {
			t.Fatalf("read of the truncated file: %d bytes, EOF %v, %v", len(r.Data), r.EOF, err)
		}
	})
}
