package tunnel

import (
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"time"
)

// Deflation: a frame that zero elision leaves whole crosses deflated when
// the link is what holds its writer back and deflating pays. The writer
// times every raw write it makes; a write counts as held back when it
// took longer than deflating its bytes takes on this host, and once
// heldWrites writes in a row were, a chunk of minTimed bytes or more is
// deflated — with a fresh compressor state, so no dictionary crosses
// frames — and sealed in that form when its body is at least an eighth
// shorter. The top-but-one bit of the frame's length word marks the form.
const (
	deflatedBit = 1 << 30 // of the length word: the body is a deflate stream
	// heldWrites is how many raw writes in a row must have been held back:
	// one slow write is as likely a descheduled writer or reader as a slow
	// link, and a busy host makes those one at a time.
	heldWrites = 3
	// minTimed is the least a write is timed as: a shorter one is charged
	// as this long, or a system call's fixed cost would read as a slow
	// link. It is also the least a chunk must be to be deflated: a
	// shorter one would save little.
	minTimed = 4 << 10
	// passOver is how many chunks the writer does not try after one that
	// did not deflate: random bytes (a redo log, the file channel's gzip)
	// come in runs, and each try costs a deflate pass while the link waits.
	passOver = 7
	// freeStates bounds each free list: the compressor states kept idle
	// for the next frame, about one per frame deflated at once.
	freeStates = 4
)

// Compressor and decompressor states are shared by every Conn in the
// process through bounded free lists: a flate.Writer is about 1.2 MB, and
// a Conn needs one only while it deflates a frame. A sync.Pool would be
// emptied by every collection.
var (
	deflaters = make(chan *flate.Writer, freeStates)
	inflaters = make(chan io.ReadCloser, freeStates)
)

// deflateNsPerKiB is what deflating a KiB of a compressible frame takes on
// this host, measured once at start-up, outside any testing/synctest
// bubble (inside one a measured CPU cost would read as zero).
var deflateNsPerKiB = calibrate()

// calibrate times the deflation of a sample shaped like written disk
// pages — text with a stray byte here and there — and returns the fastest
// of a few runs: the first pays for the compressor's fresh pages, and any
// may be descheduled.
func calibrate() int64 {
	sample := make([]byte, 16<<10)
	for i := range sample {
		sample[i] = "/usr/lib/libgrid"[i%16]
		if i%127 == 0 {
			sample[i] = byte(i)
		}
	}
	fw := getDeflater()
	defer putDeflater(fw)
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fw.Reset(io.Discard)
		fw.Write(sample)
		fw.Close()
		best = min(best, time.Since(t0))
	}
	return max(1, best.Nanoseconds()*1024/int64(len(sample)))
}

func getDeflater() *flate.Writer {
	select {
	case fw := <-deflaters:
		return fw
	default:
		fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed) // fails only for a bad level
		return fw
	}
}

func putDeflater(fw *flate.Writer) {
	select {
	case deflaters <- fw:
	default:
	}
}

func getInflater(src io.Reader) io.ReadCloser {
	select {
	case fr := <-inflaters:
		fr.(flate.Resetter).Reset(src, nil)
		return fr
	default:
		return flate.NewReader(src)
	}
}

func putInflater(fr io.ReadCloser) {
	select {
	case inflaters <- fr:
	default:
	}
}

// timed records how long a raw write of n bytes took: held back when
// longer than deflating max(n, minTimed) bytes takes on this host.
func (h *half) timed(n int, d time.Duration) {
	if d.Nanoseconds()*1024 > int64(max(n, minTimed))*deflateNsPerKiB {
		h.held++
	} else {
		h.held = 0
	}
}

// errFull stops a deflation whose output would not be short enough.
var errFull = errors.New("tunnel: deflated form too long")

// bounded collects a deflated body in the spare capacity of buf, and
// refuses to grow past it.
type bounded struct{ buf []byte }

func (b *bounded) Write(p []byte) (int, error) {
	if len(p) > cap(b.buf)-len(b.buf) {
		return 0, errFull
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// deflate returns p's deflated form, built in dst's capacity, when the
// link holds the writer back, p is long enough and not passed over, and
// the form is at least an eighth shorter than p; else nil.
func (h *half) deflate(dst, p []byte) []byte {
	if h.held < heldWrites || len(p) < minTimed {
		return nil
	}
	if h.skip > 0 {
		h.skip--
		return nil
	}
	h.out.buf = dst[: 0 : len(p)-len(p)/8]
	fw := getDeflater()
	fw.Reset(&h.out)
	_, err := fw.Write(p)
	if err == nil {
		err = fw.Close()
	}
	putDeflater(fw)
	if err != nil {
		h.skip = passOver
		return nil
	}
	return h.out.buf
}

// inflate checks and expands a deflated body into the Conn's inflate
// buffer, which grows by doubling to fit and never beyond maxFrame: a
// stream that is malformed, that ends early, that has bytes after its
// end or that inflates past maxFrame is refused whole. The source is a
// *bytes.Reader, an io.ByteReader, so the decompressor reads no byte past
// the stream's end and allocates no bufio.Reader of its own.
func (c *Conn) inflate(body []byte) ([]byte, error) {
	c.src.Reset(body)
	fr := getInflater(&c.src)
	defer putInflater(fr)
	for n := 0; ; {
		if n == len(c.plain) {
			if n == maxFrame { // full: the stream must end here
				var one [1]byte
				k, err := fr.Read(one[:])
				if k > 0 {
					return nil, fmt.Errorf("tunnel: deflated frame inflates past %d bytes", maxFrame)
				}
				return c.inflated(n, err)
			}
			grown := make([]byte, min(max(2*n, minBuf), maxFrame))
			copy(grown, c.plain[:n])
			c.plain = grown
		}
		k, err := fr.Read(c.plain[n:])
		n += k
		if err != nil {
			return c.inflated(n, err)
		}
	}
}

// inflated returns the n bytes inflated when the deflate stream, whose
// read returned err, ended where the body does; else the error.
func (c *Conn) inflated(n int, err error) ([]byte, error) {
	switch {
	case err != io.EOF:
		return nil, fmt.Errorf("tunnel: malformed deflated frame: %v", err)
	case c.src.Len() > 0:
		return nil, errors.New("tunnel: deflated frame has bytes after its end")
	}
	return c.plain[:n], nil
}
