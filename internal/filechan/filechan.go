// Package filechan implements the GVFS file-based data channel (paper
// §3.2.2): an on-demand whole-file transfer service that the client
// proxy spawns when meta-data marks a file as entirely required. The
// server side compresses the file (the paper uses GZIP), the client
// remote-copies the compressed stream (the paper uses GSI-enabled SCP
// over SSH; here the channel runs over the tunnel package), then
// uncompresses it into the file cache. The same channel runs in
// reverse for write-back uploads.
//
// The three steps run as one pipeline, like gzip | scp | gunzip: no
// buffer on either side grows with the file. The wire format is
//
//	request = op (1) | compressed (1) | path length (4) | path
//	status  = code (1) | message length (4, ≤ 4096) | message
//	body    = declared size (8) | chunk* | terminator | status
//	chunk   = length (4, 1 to 1 MiB) | raw or gzip bytes
//
// where the terminator is a zero chunk length and the closing status
// (the trailer) says whether the sender read its whole source. A GET is
// a request answered by a status and, when that is OK, a body; a PUT is
// a request followed by a body, answered by a status. The receiver
// accepts a body only if it decodes to exactly the declared size, the
// gzip trailer checks out, and the trailer status is OK.
//
// The package also provides Copy, the plain full-file transfer used as
// the paper's SCP baseline for whole-image cloning.
package filechan

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// Op codes.
const (
	opGet = 'G'
	opPut = 'P'
)

// Status codes.
const (
	statusOK    = 0
	statusError = 1
)

const (
	maxFileSize = 4 << 30 // bounds a single transfer (4 GiB)
	maxChunk    = 1 << 20 // bounds one chunk on the wire
	maxMessage  = 4096    // bounds a status message
	maxPath     = 4096    // bounds a request's path
	// fetchTrusted bounds what Fetch allocates before the bytes arrive.
	fetchTrusted = 16 << 20
	// sendChunk is how much a sender puts in one chunk: with the reply
	// status and declared size before it, or the terminator and trailer
	// after it, one write still fits a 1 MiB tunnel frame.
	sendChunk = maxChunk - 64
)

// ErrRemote reports a failure the peer described in a status.
var ErrRemote = errors.New("filechan: remote error")

// FileStore is the server-side storage interface: whole files read and
// written as sized streams. memfs.FS and osfs.FS satisfy it.
type FileStore interface {
	// OpenFile returns a reader of path's contents and their size. The
	// reader returns io.EOF after exactly size bytes, or an error if
	// the file changed while it was read.
	OpenFile(path string) (io.ReadCloser, uint64, error)
	// WriteFileFrom replaces path with what r yields up to its io.EOF,
	// size bytes. If r fails, path keeps its old contents.
	WriteFileFrom(path string, r io.Reader, size uint64) error
}

// Server answers file-channel requests from a FileStore. It runs on
// the image server beside the server-side proxy.
type Server struct {
	store FileStore

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer returns a Server backed by store.
func NewServer(store FileStore) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// Serve accepts and serves connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.ServeConn(conn)
	}
}

// Close terminates all connections.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
}

// ServeConn handles requests on one connection until EOF.
func (s *Server) ServeConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.serve(bufio.NewReader(conn), conn)
}

// serve answers the requests read from r on w until one fails in a way
// that leaves the connection out of step. A client sends nothing past a
// request until it has read the answer, so r never buffers ahead.
func (s *Server) serve(r *bufio.Reader, w io.Writer) {
	for {
		op, compressed, path, err := readRequest(r)
		if err != nil {
			return
		}
		switch op {
		case opGet:
			err = s.handleGet(w, path, compressed)
		case opPut:
			err = s.handlePut(r, w, path, compressed)
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// handleGet answers a GET; it returns only errors that end the
// connection. A source that fails mid-stream is reported in the trailer.
func (s *Server) handleGet(w io.Writer, path string, compressed bool) error {
	src, size, err := s.store.OpenFile(path)
	if err != nil {
		_, err = w.Write(appendStatus(nil, err))
		return err
	}
	defer src.Close()
	_, err = sendBody(w, appendStatus(nil, nil), src, size, compressed)
	return err
}

// handlePut stores an uploaded body and answers with a status. It
// returns an error, ending the connection, when the body itself failed:
// what follows it on the connection is then unknown.
func (s *Server) handlePut(r *bufio.Reader, w io.Writer, path string, compressed bool) error {
	body, err := readBody(r, compressed)
	if err != nil {
		w.Write(appendStatus(nil, err))
		return err
	}
	err = s.store.WriteFileFrom(path, body, body.size)
	// Read whatever the store left, so the next request starts in step.
	if _, derr := io.Copy(io.Discard, body); derr != nil {
		w.Write(appendStatus(nil, derr))
		return derr
	}
	_, werr := w.Write(appendStatus(nil, err))
	return werr
}

func appendRequest(buf []byte, op byte, compressed bool, path string) []byte {
	var c byte
	if compressed {
		c = 1
	}
	buf = append(buf, op, c)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(path)))
	return append(buf, path...)
}

func readRequest(r io.Reader) (op byte, compressed bool, path string, err error) {
	var hdr [6]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, false, "", err
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > maxPath {
		return 0, false, "", errors.New("filechan: path too long")
	}
	p := make([]byte, n)
	if _, err = io.ReadFull(r, p); err != nil {
		return 0, false, "", err
	}
	return hdr[0], hdr[1] == 1, string(p), nil
}

// appendStatus appends the status reporting err, OK when it is nil.
func appendStatus(buf []byte, err error) []byte {
	if err == nil {
		return append(buf, statusOK, 0, 0, 0, 0)
	}
	msg := err.Error()
	if len(msg) > maxMessage {
		msg = msg[:maxMessage]
	}
	buf = append(buf, statusError)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg)))
	return append(buf, msg...)
}

// readStatus reads a status and returns the error it reports.
func readStatus(r io.Reader) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return unexpected(err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxMessage {
		return fmt.Errorf("filechan: status message of %d bytes exceeds %d", n, maxMessage)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return unexpected(err)
	}
	if hdr[0] != statusOK {
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	return nil
}

// unexpected turns the io.EOF of a stream cut inside a frame into
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FetchTo retrieves path over the channel into w and returns its size.
// With compressed set, the server gzips and FetchTo gunzips as the bytes
// arrive — the paper's compress/remote-copy/uncompress sequence. An
// error other than ErrRemote can leave the connection out of step.
func FetchTo(conn net.Conn, path string, compressed bool, w io.Writer) (uint64, error) {
	body, err := get(conn, path, compressed)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, body)
	return uint64(n), err
}

// Fetch is FetchTo into memory, for callers that want the whole file
// there. It takes the declared size on the peer's word up to
// fetchTrusted; past that its buffer doubles as the bytes arrive.
func Fetch(conn net.Conn, path string, compressed bool) ([]byte, error) {
	body, err := get(conn, path, compressed)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, min(body.size, fetchTrusted))
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(uint64(len(buf)), body.size-uint64(len(buf)))))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// get sends a GET and reads its reply up to the body.
func get(conn net.Conn, path string, compressed bool) (*bodyReader, error) {
	if _, err := conn.Write(appendRequest(nil, opGet, compressed, path)); err != nil {
		return nil, err
	}
	return readReply(bufio.NewReader(conn), compressed)
}

// readReply reads a GET's reply up to its body. The server sends
// nothing past the reply until the next request, so r never buffers
// ahead.
func readReply(r *bufio.Reader, compressed bool) (*bodyReader, error) {
	if err := readStatus(r); err != nil {
		return nil, err
	}
	return readBody(r, compressed)
}

// PutFrom uploads size bytes read from r to path over the channel — the
// write-back direction (compress, upload, uncompress on the server).
func PutFrom(conn net.Conn, path string, r io.Reader, size uint64, compressed bool) error {
	srcErr, err := sendBody(conn, appendRequest(nil, opPut, compressed, path), r, size, compressed)
	if err != nil {
		return err
	}
	if err := readStatus(conn); srcErr == nil {
		return err
	}
	return srcErr
}

// Copy transfers one file from a remote store uncompressed and counts
// its bytes into a sink — the behaviour of plain SCP full-file copying,
// used as the paper's baseline (1127 s for a whole VM image).
func Copy(conn net.Conn, path string) (uint64, error) {
	return FetchTo(conn, path, false, io.Discard)
}

// sendBody writes prefix and then src's size bytes as a body, gzipped
// when compressed is set. A failure of src ends the body early with an
// error trailer and comes back as srcErr; err is a failure to write,
// after which the connection is unusable.
func sendBody(w io.Writer, prefix []byte, src io.Reader, size uint64, compressed bool) (srcErr, err error) {
	bw := newBodyWriter(w, prefix, size)
	var n int64
	if compressed {
		// "compress the file on the server (e.g. using GZIP)"
		zw, _ := gzip.NewWriterLevel(bw, gzip.BestSpeed) // a valid level cannot fail
		if n, srcErr = io.Copy(zw, src); srcErr == nil {
			srcErr = zw.Close()
		}
	} else {
		n, srcErr = io.Copy(bw, src)
	}
	if bw.err != nil {
		return srcErr, bw.err
	}
	if srcErr == nil && uint64(n) != size {
		srcErr = fmt.Errorf("filechan: source gave %d of its %d bytes", n, size)
	}
	return srcErr, bw.close(srcErr)
}

// bodyWriter frames the bytes written to it as a body's chunks. It holds
// one chunk back, so the bytes before the body go out with the first
// chunk and the terminator and trailer with the last.
type bodyWriter struct {
	w   io.Writer
	buf []byte // unsent bytes: what precedes the chunk, its length, its data
	at  int    // where the pending chunk's length field is in buf
	err error  // the first write error
}

func newBodyWriter(w io.Writer, prefix []byte, size uint64) *bodyWriter {
	// Room for the prefix, one chunk, and the terminator and trailer.
	buf := make([]byte, 0, len(prefix)+8+4+sendChunk+4+5+maxMessage)
	buf = append(buf, prefix...)
	buf = binary.BigEndian.AppendUint64(buf, size)
	return &bodyWriter{w: w, buf: append(buf, 0, 0, 0, 0), at: len(buf)}
}

func (b *bodyWriter) room() int { return b.at + 4 + sendChunk - len(b.buf) }

// flush sends the pending bytes, which end in a full chunk, and starts
// the next chunk.
func (b *bodyWriter) flush() error {
	binary.BigEndian.PutUint32(b.buf[b.at:], uint32(len(b.buf)-b.at-4))
	if _, err := b.w.Write(b.buf); err != nil {
		b.err = err
		return err
	}
	b.buf, b.at = append(b.buf[:0], 0, 0, 0, 0), 0
	return nil
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		if b.room() == 0 {
			if err := b.flush(); err != nil {
				return n, err
			}
		}
		k := min(b.room(), len(p))
		b.buf = append(b.buf, p[:k]...)
		n, p = n+k, p[k:]
	}
	return n, nil
}

// close ends the body with the pending chunk, the terminator and the
// trailer reporting srcErr, in one write.
func (b *bodyWriter) close(srcErr error) error {
	if n := len(b.buf) - b.at - 4; n > 0 {
		binary.BigEndian.PutUint32(b.buf[b.at:], uint32(n))
		b.buf = append(b.buf, 0, 0, 0, 0)
	} // else the empty length field is the terminator
	_, err := b.w.Write(appendStatus(b.buf, srcErr))
	return err
}

// chunkReader reads a body's chunks as one stream and returns io.EOF at
// the terminator.
type chunkReader struct {
	r    *bufio.Reader
	left uint32 // bytes left in the current chunk
	done bool   // the terminator has been read
	err  error
}

// next reads the next chunk's length.
func (c *chunkReader) next() error {
	if c.err != nil {
		return c.err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		c.err = unexpected(err)
		return c.err
	}
	switch n := binary.BigEndian.Uint32(hdr[:]); {
	case n == 0:
		c.done, c.err = true, io.EOF
	case n > maxChunk:
		c.err = fmt.Errorf("filechan: chunk of %d bytes exceeds %d", n, maxChunk)
	default:
		c.left = n
	}
	return c.err
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.left == 0 {
		if err := c.next(); err != nil {
			return 0, err
		}
	}
	if uint64(len(p)) > uint64(c.left) {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= uint32(n)
	return n, unexpected(err)
}

// ReadByte lets the gzip reader read the chunks without a buffer of its
// own, which could hold bytes past the gzip stream.
func (c *chunkReader) ReadByte() (byte, error) {
	if c.left == 0 {
		if err := c.next(); err != nil {
			return 0, err
		}
	}
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, unexpected(err)
	}
	c.left--
	return b, nil
}

// bodyReader yields a body's declared size bytes, gunzipped when the
// body is compressed. It returns io.EOF only after checking the body's
// end: nothing past the declared size, a good gzip trailer, the
// terminator and an OK trailer status. Its errors are sticky.
type bodyReader struct {
	chunks     chunkReader
	compressed bool
	zr         *gzip.Reader // over chunks, opened on first use
	size, n    uint64
	err        error
}

// readBody reads a body's declared size and returns its reader.
func readBody(r *bufio.Reader, compressed bool) (*bodyReader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, unexpected(err)
	}
	size := binary.BigEndian.Uint64(hdr[:])
	if size > maxFileSize {
		return nil, fmt.Errorf("filechan: declared size %d exceeds %d", size, uint64(maxFileSize))
	}
	return &bodyReader{chunks: chunkReader{r: r}, compressed: compressed, size: size}, nil
}

// data is the reader of the body's bytes.
func (b *bodyReader) data() (io.Reader, error) {
	if !b.compressed {
		return &b.chunks, nil
	}
	if b.zr == nil {
		zr, err := gzip.NewReader(&b.chunks)
		if err != nil {
			return nil, unexpected(err) // no gzip header is not an empty file
		}
		zr.Multistream(false)
		b.zr = zr
	}
	return b.zr, nil
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.n == b.size {
		b.err = b.finish()
		return 0, b.err
	}
	if uint64(len(p)) > b.size-b.n {
		p = p[:b.size-b.n]
	}
	src, err := b.data()
	n := 0
	if err == nil {
		n, err = src.Read(p)
	}
	b.n += uint64(n)
	if err == io.EOF {
		if b.n == b.size {
			err = nil
		} else {
			err = fmt.Errorf("filechan: size mismatch: stream ended at %d of the declared %d bytes", b.n, b.size)
		}
	}
	if err != nil {
		b.err = b.remote(err)
	}
	return n, b.err
}

// finish checks everything after the declared size's last byte.
func (b *bodyReader) finish() error {
	src, err := b.data()
	if err != nil {
		return b.remote(err)
	}
	var one [1]byte
	if _, err := io.ReadFull(src, one[:]); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("filechan: size mismatch: stream longer than the declared %d bytes", b.size)
		}
		return b.remote(err)
	}
	if b.compressed {
		if _, err := io.ReadFull(&b.chunks, one[:]); err != io.EOF {
			if err == nil {
				err = errors.New("filechan: bytes after the gzip stream")
			}
			return b.remote(err)
		}
	}
	if err := readStatus(b.chunks.r); err != nil {
		return err
	}
	return io.EOF
}

// remote prefers the sender's own account of a failure: when the chunks
// ended cleanly, the trailer says why the body fell short.
func (b *bodyReader) remote(err error) error {
	if b.chunks.done {
		if terr := readStatus(b.chunks.r); errors.Is(terr, ErrRemote) {
			return terr
		}
	}
	return err
}
