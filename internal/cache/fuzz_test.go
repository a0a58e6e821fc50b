package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzScanJournal feeds scanJournal arbitrary journal files: it must not
// panic, its valid prefix must lie within the input and re-encode, record
// by record, to exactly those bytes, and no entry may carry more data
// than a record is allowed.
func FuzzScanJournal(f *testing.F) {
	data := encodeRecord(recData, BlockID{FH: "fh-A", Block: 7}, []byte("dirty block bytes"))
	commit := encodeRecord(recCommit, BlockID{FH: "fh-A", Block: 7}, nil)
	badCRC := bytes.Clone(data)
	badCRC[len(badCRC)-1] ^= 0xff
	badMagic := bytes.Clone(data)
	badMagic[0] ^= 0xff
	noFH := bytes.Clone(commit)
	binary.BigEndian.PutUint32(noFH[8:], 0)
	oversize := bytes.Clone(commit)
	binary.BigEndian.PutUint32(oversize[20:], maxJournalData+1)
	for _, seed := range [][]byte{
		data,
		commit,
		append(bytes.Clone(data), commit...),
		append(bytes.Clone(data), commit[:len(commit)/2]...), // torn tail
		badCRC,
		badMagic,
		noFH,
		oversize,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		entries, validLen := scanJournal(buf)
		if validLen < 0 || validLen > len(buf) {
			t.Fatalf("valid prefix %d of a %d-byte journal", validLen, len(buf))
		}
		var again []byte
		for _, e := range entries {
			if len(e.data) > maxJournalData {
				t.Fatalf("entry of %d data bytes, bound %d", len(e.data), maxJournalData)
			}
			again = append(again, encodeRecord(e.kind, e.id, e.data)...)
		}
		if !bytes.Equal(again, buf[:validLen]) {
			t.Fatalf("%d entries re-encode to %d bytes that differ from the %d-byte valid prefix", len(entries), len(again), validLen)
		}
	})
}
