package gvfs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
)

// File is an open file within a Session. Reads and writes flow through
// the session's buffer cache the way a kernel NFS client's do: the cache
// holds pages of the session's block size, a read fetches the pages it
// lacks as READs of up to rsize (nfs3.MaxTransfer) with several
// outstanding, and a write goes out page by page. File implements
// io.Reader, io.Writer, io.ReaderAt, io.WriterAt, io.Seeker and
// io.Closer.
type File struct {
	s    *Session
	fh   nfs3.FH
	key  string // fh.Key(), computed once: it names the file's pages in the buffer cache
	path string

	mu       sync.Mutex
	pos      int64
	size     uint64
	writeSeq uint64 // moves, with the page patch, on every acknowledged write and truncate
	dirty    bool   // written since the last successful Sync
	closed   bool
}

// Handle returns the file's NFS handle.
func (f *File) Handle() nfs3.FH { return f.fh }

// Path returns the session path the file was opened with.
func (f *File) Path() string { return f.path }

// Size returns the file size as known to this handle.
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Close releases the handle, committing written data first so the
// caller learns about propagation failures instead of losing them.
// Close is idempotent: the commit happens once, and a second Close
// returns nil. Durability beyond the first hop is governed by the
// session's consistency model (see the proxy Flush/WriteBack controls).
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	dirty := f.dirty
	f.dirty = false
	f.mu.Unlock()
	f.s.untrackFile(f)
	if dirty {
		return f.s.nfs.Commit(f.fh, 0, 0)
	}
	return nil
}

func (f *File) checkOpen() error {
	if f.closed {
		return errors.New("gvfs: file is closed")
	}
	return nil
}

// readsInFlight is how many READs one ReadAt keeps outstanding. A window
// is nfs3.MaxTransfer (32 KiB), and what keeps a link busy is its
// bandwidth-delay product in windows: simnet.WAN() is 1.75 MB/s × 30 ms =
// 52 KB, two windows; simnet.LAN() is 12.5 MB/s × 0.2 ms = 2.5 KB, less
// than one. A constant, because a third window in flight buys nothing on
// either and the session cannot see the link (DESIGN.md §6.4).
const readsInFlight = 2

// window is one READ of a ReadAt's plan: a run of pages the page cache
// lacks, inside one nfs3.MaxTransfer-aligned stretch of the file.
type window struct {
	off   int64 // page-aligned
	count int
	n     int   // bytes the server returned; n < count ends the file here
	err   error // the READ failed: nothing at or after off was delivered
}

// ReadAt implements io.ReaderAt. Pages of [off, off+len(p)) that the
// buffer cache holds are copied out of it; the rest are fetched the way a
// kernel NFS client fetches them, as rsize-sized READs with several
// outstanding: each run of missing pages becomes READs that do not cross
// an nfs3.MaxTransfer-aligned window (the unit every hop below serves or
// fetches as one run), and the windows of one call go out together,
// readsInFlight at a time. Nothing beyond the pages the caller asked for
// is requested: reading ahead is the proxy's business. A reply's bytes go
// from the transport's record straight to p, and once more into the
// buffer cache (fill), so p is filled whatever the cache's capacity.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if err := f.checkOpen(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	size, seq := int64(f.size), f.writeSeq
	f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("gvfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	bs := int64(f.s.bs)
	perWindow := max(nfs3.MaxTransfer/bs, 1) // pages
	end := off + int64(len(p))
	valid := end // p[:valid-off] is what the call delivers
	var wins []window
	for page := off / bs; page*bs < valid; page++ {
		lo, hi := max(page*bs, off), min((page+1)*bs, end)
		n, resident := f.readResident(p[lo-off:hi-off], page, lo-page*bs, size)
		switch last := len(wins) - 1; {
		case resident:
			if lo+n < hi { // the file's last page
				valid = lo + n
			}
		case last >= 0 && wins[last].off+int64(wins[last].count) == page*bs && page%perWindow != 0:
			wins[last].count += int(bs)
		default:
			wins = append(wins, window{off: page * bs, count: int(bs)})
		}
	}
	f.fetch(wins, p, off, seq)
	var err error
	for i := range wins {
		w := &wins[i]
		if w.err != nil {
			valid, err = min(valid, w.off), w.err
			break
		}
		if w.n < w.count {
			valid = min(valid, w.off+int64(w.n))
			break
		}
	}
	n := int(max(valid-off, 0))
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// readResident copies the buffer cache's page into dst from inPage on,
// if it holds the page. n < len(dst) means the file ends there.
func (f *File) readResident(dst []byte, page, inPage, size int64) (n int64, resident bool) {
	// Only pay for time.Now() when session metrics are enabled.
	var start time.Time
	if f.s.readDur != nil {
		start = time.Now()
	}
	// A page cached while it was the (short) tail of the file goes stale
	// when later writes extend the file past it: the missing bytes are
	// zero-fill holes, so the page is at least as long as the known file
	// size makes it.
	bs := int64(f.s.bs)
	atLeast := max(min(size-page*bs, bs), 0)
	copied, ok := f.s.pages.CopyOut(f.key, uint64(page), dst, int(inPage), int(atLeast))
	if ok {
		f.s.observeRead("hit", start)
	}
	return int64(copied), ok
}

// fetch issues the plan's READs, readsInFlight at a time and in order,
// on the session's one connection, and returns when all have answered. A
// window that fails or comes back short ends the file for this call, so
// the windows not yet sent stay unsent.
func (f *File) fetch(wins []window, p []byte, off int64, seq uint64) {
	if len(wins) < 2 { // all resident; a page, or an extent inside one window
		for i := range wins {
			f.fetchWindow(&wins[i], p, off, seq)
		}
		return
	}
	var next atomic.Int64
	var stop atomic.Bool
	worker := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(wins) {
				return
			}
			if !f.fetchWindow(&wins[i], p, off, seq) {
				stop.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < min(readsInFlight, len(wins)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
}

// fetchWindow is one READ: the part of the reply inside [off, off+len(p))
// goes to p, every page of it to the buffer cache, and the transport's
// record back to its pool. It reports whether the window came back whole.
func (f *File) fetchWindow(w *window, p []byte, off int64, seq uint64) bool {
	var start time.Time
	if f.s.readDur != nil {
		start = time.Now()
	}
	data, eof, rec, err := f.s.nfs.ReadPooled(f.fh, uint64(w.off), uint32(w.count))
	if err != nil {
		w.err = err
		return false
	}
	f.s.observeRead("miss", start)
	data = data[:min(len(data), w.count)]
	w.n = len(data)
	if lo := max(w.off, off); lo < w.off+int64(len(data)) {
		copy(p[lo-off:], data[lo-w.off:])
	}
	f.fill(w.off, data, eof, seq)
	bufpool.Put(rec)
	return w.n == w.count
}

// fill offers a READ reply's pages to the buffer cache under the proxy's
// keepAhead rule: seq is the file's write sequence from before the READ
// went out, and if a write has been acknowledged since, the bytes may be
// older than what it wrote — to a page it patched, or to one it left
// alone because it was not resident — so none are installed (the caller
// has its bytes all the same). A write patches and moves the sequence
// under f.mu, so a reply either lands before the patch and is patched, or
// sees the sequence moved. A resident page is never replaced. A short
// last piece is a page only where the file ends.
func (f *File) fill(off int64, data []byte, eof bool, seq uint64) {
	if f.s.pages.Capacity() == 0 {
		return
	}
	bs := int(f.s.bs)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeSeq != seq {
		return
	}
	for page := uint64(off) / uint64(bs); len(data) > 0; page++ {
		piece := data[:min(len(data), bs)]
		data = data[len(piece):]
		if len(piece) < bs && !eof {
			return
		}
		f.s.pages.Fill(f.key, page, piece)
	}
}

// ReadAll reads the entire file from offset 0.
func (f *File) ReadAll() ([]byte, error) {
	size := f.Size()
	buf := make([]byte, size)
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	return buf[:n], err
}

// WriteAt implements io.WriterAt. Writes are issued to the NFS server
// block by block (the proxy absorbs them under write-back), and the
// buffer cache is updated so subsequent reads hit in memory.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if err := f.checkOpen(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("gvfs: negative offset %d", off)
	}
	bs := int64(f.s.bs)
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		blockStart := cur - cur%bs
		inBlock := cur - blockStart
		n := int(bs - inBlock)
		if n > len(p)-total {
			n = len(p) - total
		}
		chunk := p[total : total+n]
		if _, _, err := f.s.nfs.Write(f.fh, uint64(cur), chunk, nfs3.Unstable); err != nil {
			return total, err
		}
		total += n
		f.mu.Lock()
		f.updatePageAfterWrite(blockStart, inBlock, chunk)
		f.writeSeq++ // with the patch: see fill
		if end := uint64(off) + uint64(total); end > f.size {
			f.size = end
		}
		f.dirty = true
		f.mu.Unlock()
	}
	return total, nil
}

// updatePageAfterWrite keeps the buffer cache coherent with a write.
// If the page is resident it is patched in place; a non-resident page
// is only installed for whole-block writes (partial writes to absent
// pages would otherwise need a read-modify-write round trip). f.mu is
// held.
func (f *File) updatePageAfterWrite(blockStart, inBlock int64, chunk []byte) {
	block := uint64(blockStart) / uint64(f.s.bs)
	if data, ok := f.s.pages.Get(f.fh, block); ok {
		end := inBlock + int64(len(chunk))
		if int64(len(data)) < end {
			grown := make([]byte, end)
			copy(grown, data)
			data = grown
		}
		copy(data[inBlock:], chunk)
		f.s.pages.Put(f.fh, block, data)
		return
	}
	if inBlock == 0 {
		f.s.pages.Put(f.fh, block, chunk)
	}
}

// Read implements io.Reader at the current position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(p, pos)
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	return n, err
}

// Write implements io.Writer at the current position.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.WriteAt(p, pos)
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.pos + offset
	case io.SeekEnd:
		next = int64(f.size) + offset
	default:
		return 0, fmt.Errorf("gvfs: bad whence %d", whence)
	}
	if next < 0 {
		return 0, errors.New("gvfs: negative seek position")
	}
	f.pos = next
	return next, nil
}

// Truncate resizes the file.
func (f *File) Truncate(size uint64) error {
	if _, err := f.s.nfs.SetAttr(f.fh, nfs3.SetAttr{Size: &size}); err != nil {
		return err
	}
	f.mu.Lock()
	f.s.pages.InvalidateFile(f.fh)
	f.writeSeq++ // a READ from before the truncate fills nothing: see fill
	f.size = size
	if f.pos > int64(size) {
		f.pos = int64(size)
	}
	f.mu.Unlock()
	return nil
}

// Sync issues an NFS COMMIT for the file. Under the proxy's write-back
// policy this returns quickly: the session consistency model defers
// real propagation to the middleware's WriteBack/Flush.
func (f *File) Sync() error {
	if err := f.s.nfs.Commit(f.fh, 0, 0); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirty = false
	f.mu.Unlock()
	return nil
}
