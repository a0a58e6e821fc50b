package meta

// FuzzMetaDecode: a .meta file is bytes the proxy did not write, and its
// zero map decides which blocks of a file-channel fetch are installed and
// which READs are answered with zeros.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

func FuzzMetaDecode(f *testing.F) {
	for _, m := range []*Meta{
		ForWholeFile(append(make([]byte, 3*4096), 1), 4096),
		GenerateZeroMap(make([]byte, 100), 8),
		{FileSize: 1 << 62, BlockSize: 4096, ZeroMap: []byte{0xff}},
		{FileSize: ^uint64(0), BlockSize: 1, ZeroMap: []byte{1}},
	} {
		blob, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, uint64(3))
	}
	f.Add([]byte(`{"version":1,"zero_map":""}`), uint64(0))
	f.Add([]byte(`{"version":1,"block_size":7,"zero_map":"","actions":[]}`), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, probe uint64) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		n := m.NumBlocks()
		if bs := uint64(m.BlockSize); bs > 0 && (n < m.FileSize/bs || n > 0 && (n-1)*bs >= m.FileSize) {
			t.Fatalf("NumBlocks %d for %d bytes of %d-byte blocks", n, m.FileSize, bs)
		}
		// Total: any block, in the map, past it or past the file.
		for _, b := range []uint64{0, probe, n - 1, n, uint64(len(m.ZeroMap)) * 8, ^uint64(0)} {
			if m.IsZeroBlock(b) && (b >= n || b/8 >= uint64(len(m.ZeroMap))) {
				t.Fatalf("block %d zero, outside %d blocks and a %d-byte map", b, n, len(m.ZeroMap))
			}
		}
		if c := m.ZeroBlockCount(); c > n || c > uint64(len(m.ZeroMap))*8 {
			t.Fatalf("%d zero blocks of %d in a %d-byte map", c, n, len(m.ZeroMap))
		}
		blob, err := m.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Decode(blob)
		if err != nil {
			t.Fatalf("decode of %q, encoded from an accepted %q: %v", blob, data, err)
		}
		if again.Version != m.Version || again.FileSize != m.FileSize || again.BlockSize != m.BlockSize ||
			!bytes.Equal(again.ZeroMap, m.ZeroMap) || !slices.Equal(again.Actions, m.Actions) {
			t.Fatalf("decode(encode(decode(%q))) = %+v, want %+v", data, again, m)
		}
		// A proxy's fetches and writes change its decoded copy, any block.
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], probe)
		if m.ConfirmZero(probe, b[:]) && probe != 0 {
			t.Fatalf("block %d confirmed zero by non-zero bytes", probe)
		}
		if m.ClearZero(probe); m.IsZeroBlock(probe) {
			t.Fatalf("block %d still zero after ClearZero", probe)
		}
	})
}
