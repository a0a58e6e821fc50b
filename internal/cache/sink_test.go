package cache

import (
	"sync"

	"gvfs/internal/nfs3"
)

// blockSink is the next hop of every write-back test. A flush sends
// runs of blocks and an eviction sends one, so the sink splits each
// WRITE at block boundaries, keeps the bytes that landed last for every
// block, and counts WRITEs and blocks separately: content and ordering
// assertions are per block whatever shape the WRITE had, and the shape
// is asserted from the counts and from calls.
type blockSink struct {
	bs int

	mu      sync.Mutex
	landed  map[BlockID][]byte
	calls   []wbCall // every WRITE, in arrival order
	nblocks int      // blocks those WRITEs covered
}

type wbCall struct {
	fh   nfs3.FH
	off  uint64
	data []byte
}

func newBlockSink(blockSize int) *blockSink {
	return &blockSink{bs: blockSize, landed: make(map[BlockID][]byte)}
}

// writeBack is the sink's WriteBackFunc.
func (s *blockSink) writeBack(fh nfs3.FH, off uint64, data []byte) error {
	data = append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, wbCall{fh: fh, off: off, data: data})
	for b := off / uint64(s.bs); ; b++ {
		n := min(len(data), s.bs)
		s.landed[BlockID{FH: fh.Key(), Block: b}] = data[:n:n]
		s.nblocks++
		if data = data[n:]; len(data) == 0 {
			return nil
		}
	}
}

// writes returns how many WRITEs arrived, blocks how many blocks they
// covered.
func (s *blockSink) writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.calls)
}

func (s *blockSink) blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nblocks
}

// block returns the bytes last landed for one block.
func (s *blockSink) block(fh nfs3.FH, block uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.landed[BlockID{FH: fh.Key(), Block: block}]
	return data, ok
}

// image returns one file's landed blocks keyed by byte offset.
func (s *blockSink) image(fh nfs3.FH) map[uint64][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64][]byte)
	for id, data := range s.landed {
		if id.FH == fh.Key() {
			out[id.Block*uint64(s.bs)] = data
		}
	}
	return out
}
