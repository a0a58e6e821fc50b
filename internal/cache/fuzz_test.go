package cache

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gvfs/internal/nfs3"
)

// FuzzScanJournal feeds scanJournal arbitrary journal files: it must not
// panic, its valid prefix must lie within the input and re-encode, header
// and record by record, to exactly those bytes, and no entry may carry
// more data than a record is allowed.
func FuzzScanJournal(f *testing.F) {
	const epoch = 0x0123456789abcdef
	seed := epochSeed(epoch)
	id := BlockID{FH: "fh-A", Block: 7}
	header := make([]byte, fileHeaderSize)
	encodeFileHeader(header, epoch)
	file := func(records ...[]byte) []byte { return bytes.Join(append([][]byte{header}, records...), nil) }
	data := encodeRecord(seed, recData, id, []byte("dirty block bytes"))
	commit := encodeRecord(seed, recCommit, id, nil)
	badCRC := bytes.Clone(data)
	badCRC[15] ^= 0xff // the block number
	// The record CRC covers the stored data sum, not the data: a flipped
	// data byte leaves the CRC whole and the sum disagreeing.
	badSum := bytes.Clone(data)
	badSum[len(badSum)-1] ^= 0xff
	noFH := bytes.Clone(commit)
	binary.BigEndian.PutUint32(noFH[8:], 0)
	oversize := bytes.Clone(commit)
	binary.BigEndian.PutUint32(oversize[20:], maxJournalData+1)
	stale := encodeRecord(epochSeed(epoch-1), recData, id, []byte("from the epoch before"))
	tornHeader := bytes.Clone(header)
	tornHeader[9] ^= 0xff
	for _, seed := range [][]byte{
		file(data),
		file(commit),
		file(data, commit),
		file(data, commit[:len(commit)/2]), // torn tail
		file(data, make([]byte, 8)),        // the end of the log
		file(badCRC),
		file(noFH),
		file(oversize),
		file(badSum),
		file(data, stale), // a record of an earlier epoch
		append(tornHeader, data...),
		header[:fileHeaderSize/2],
		append(encodeOldRecord(recData, id, []byte("unmapped format")), encodeOldRecord(recCommit, id, nil)...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		s := scanJournal(buf)
		if s.end < 0 || s.end > len(buf) {
			t.Fatalf("valid prefix %d of a %d-byte journal", s.end, len(buf))
		}
		var again []byte
		if !s.old && s.end > 0 {
			again = make([]byte, fileHeaderSize)
			encodeFileHeader(again, s.epoch)
		}
		for _, e := range s.entries {
			if len(e.data) > maxJournalData {
				t.Fatalf("entry of %d data bytes, bound %d", len(e.data), maxJournalData)
			}
			if s.old {
				again = append(again, encodeOldRecord(e.kind, e.id, e.data)...)
			} else {
				again = append(again, encodeRecord(epochSeed(s.epoch), e.kind, e.id, e.data)...)
			}
		}
		if !bytes.Equal(again, buf[:s.end]) {
			t.Fatalf("%d entries re-encode to %d bytes that differ from the %d-byte valid prefix", len(s.entries), len(again), s.end)
		}
	})
}

// FuzzLoadIndex feeds LoadIndex arbitrary index.json snapshots over a
// cache of two sets per bank: it must not panic or hang, and after a nil
// return every valid frame lies in its block's set and is indexed by
// that set's stripe, every index entry names the block its frame holds,
// no block has two frames, and a Put and a Get of every restored block
// return.
func FuzzLoadIndex(f *testing.F) {
	cfg := Config{Banks: 2, SetsPerBank: 2, Assoc: 2, BlockSize: 512, Policy: WriteBack, Dedup: true}
	frame := func(idx int, fh string, block uint64) persistedFrame {
		return persistedFrame{Idx: idx, FH: base64.StdEncoding.EncodeToString([]byte(fh)), Block: block, Size: 512, LRU: uint64(idx)}
	}
	snapshot := func(frames []persistedFrame, dedup ...persistedDedup) []byte {
		blob, err := json.Marshal(persistedIndex{Version: indexVersion, Banks: cfg.Banks,
			SetsPerBank: cfg.SetsPerBank, Assoc: cfg.Assoc, BlockSize: cfg.BlockSize,
			Frames: frames, Dedup: dedup})
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	c := &Cache{cfg: cfg}
	a0, a1 := frame(0, "A", 0), frame(0, "A", 1)
	a0.Idx = c.setOf(BlockID{FH: "A", Block: 0}) * cfg.Assoc
	a1.Idx = c.setOf(BlockID{FH: "A", Block: 1}) * cfg.Assoc
	twice := a0
	twice.Block += uint64(cfg.Banks * cfg.SetsPerBank) // the same set, the same frame
	alias := persistedDedup{Hash: strings.Repeat("ab", 32), FH: a0.FH, Block: 0, Size: 512,
		Refs: []persistedRef{{FH: base64.StdEncoding.EncodeToString([]byte("B")), Block: 0}}}
	for _, seed := range [][]byte{
		snapshot([]persistedFrame{a0, a1}),
		snapshot([]persistedFrame{a0, twice}),
		snapshot([]persistedFrame{a0, a0}),
		snapshot([]persistedFrame{a0}, alias),
		[]byte(`{"version":3,"banks":2,"sets_per_bank":2,"assoc":2,"block_size":512,"frames":[{"idx":9}]}`),
		[]byte(`{"version":1}`),
		[]byte("not json"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		cfg := cfg
		cfg.Dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(cfg.Dir, indexFileName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		withDeadline(t, func() { err = c.LoadIndex() })
		if err != nil {
			return
		}
		restored := make(map[BlockID]int)
		for i := range c.frames {
			fr := &c.frames[i]
			if !fr.valid {
				continue
			}
			set := c.setOf(fr.id)
			if lo, hi := c.frameRange(set); i < lo || i >= hi {
				t.Fatalf("frame %d holds %+v, whose set is %d", i, fr.id, set)
			}
			if idx, ok := c.stripeOfSet(set).index[fr.id]; !ok || idx != i {
				t.Fatalf("frame %d holds %+v, which its stripe indexes at %d, %v", i, fr.id, idx, ok)
			}
			if j, twice := restored[fr.id]; twice {
				t.Fatalf("block %+v is in frames %d and %d", fr.id, j, i)
			}
			restored[fr.id] = i
		}
		for s := range c.stripes {
			for id, i := range c.stripes[s].index {
				if fr := &c.frames[i]; !fr.valid || fr.id != id {
					t.Fatalf("stripe %d indexes %+v at frame %d, which holds %+v", s, id, i, fr.id)
				}
			}
		}
		withDeadline(t, func() {
			for id := range restored {
				fh := nfs3.FH(id.FH)
				c.Get(fh, id.Block)
				if err := c.Put(fh, id.Block, []byte("put"), false); err != nil {
					t.Errorf("Put %+v: %v", id, err)
				}
				if got, ok := c.Get(fh, id.Block); !ok || string(got) != "put" {
					t.Errorf("Get %+v after Put = %q, %v", id, got, ok)
				}
			}
		})
	})
}
