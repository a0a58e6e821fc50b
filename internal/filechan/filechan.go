// Package filechan implements the GVFS file-based data channel (paper
// §3.2.2): an on-demand whole-file transfer service that the client
// proxy spawns when meta-data marks a file as entirely required. The
// server side compresses the file (the paper uses GZIP), the client
// remote-copies the compressed stream (the paper uses GSI-enabled SCP
// over SSH; here the channel runs over the tunnel package), then
// uncompresses it into the file cache. The same channel runs in
// reverse for write-back uploads.
//
// The package also provides Copy, the plain full-file transfer used as
// the paper's SCP baseline for whole-image cloning.
package filechan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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

// maxFileSize bounds a single transfer (4 GiB).
const maxFileSize = 4 << 30

// ErrRemote reports a server-side failure.
var ErrRemote = errors.New("filechan: remote error")

// FileStore is the server-side storage interface. memfs.FS and
// osfs.FS satisfy it.
type FileStore interface {
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
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
	for {
		op, compressed, path, err := readHeader(conn)
		if err != nil {
			return
		}
		switch op {
		case opGet:
			s.handleGet(conn, path, compressed)
		case opPut:
			if err := s.handlePut(conn, path, compressed); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (s *Server) handleGet(conn net.Conn, path string, compressed bool) {
	data, err := s.store.ReadFile(path)
	if err != nil {
		writeStatus(conn, statusError, err.Error())
		return
	}
	payload := data
	if compressed {
		// "compress the file on the server (e.g. using GZIP)"
		payload, err = gzipBytes(data)
		if err != nil {
			writeStatus(conn, statusError, err.Error())
			return
		}
	}
	var hdr [17]byte
	hdr[0] = statusOK
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(data)))     // uncompressed size
	binary.BigEndian.PutUint64(hdr[9:17], uint64(len(payload))) // wire size
	if _, err := conn.Write(hdr[:]); err != nil {
		return
	}
	conn.Write(payload)
}

func (s *Server) handlePut(conn net.Conn, path string, compressed bool) error {
	var szBuf [8]byte
	if _, err := io.ReadFull(conn, szBuf[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint64(szBuf[:])
	if n > maxFileSize {
		writeStatus(conn, statusError, "file too large")
		return errors.New("oversized put")
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return err
	}
	data := payload
	if compressed {
		var err error
		data, err = gunzipBytes(payload)
		if err != nil {
			writeStatus(conn, statusError, err.Error())
			return nil
		}
	}
	if err := s.store.WriteFile(path, data); err != nil {
		writeStatus(conn, statusError, err.Error())
		return nil
	}
	writeStatus(conn, statusOK, "")
	return nil
}

func writeHeader(conn net.Conn, op byte, compressed bool, path string) error {
	buf := make([]byte, 0, 6+len(path))
	buf = append(buf, op)
	if compressed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(path)))
	buf = append(buf, lenBuf[:]...)
	buf = append(buf, path...)
	_, err := conn.Write(buf)
	return err
}

func readHeader(conn net.Conn) (op byte, compressed bool, path string, err error) {
	var hdr [6]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, false, "", err
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > 4096 {
		return 0, false, "", errors.New("filechan: path too long")
	}
	p := make([]byte, n)
	if _, err = io.ReadFull(conn, p); err != nil {
		return 0, false, "", err
	}
	return hdr[0], hdr[1] == 1, string(p), nil
}

func writeStatus(conn net.Conn, status byte, msg string) {
	buf := make([]byte, 5+len(msg))
	buf[0] = status
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(msg)))
	copy(buf[5:], msg)
	conn.Write(buf)
}

func readStatus(conn net.Conn) error {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > 4096 {
		return errors.New("filechan: status message too long")
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(conn, msg); err != nil {
		return err
	}
	if hdr[0] != statusOK {
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	return nil
}

// Fetch retrieves path over the channel. With compressed set, the
// server gzips and the client gunzips — the paper's
// compress/remote-copy/uncompress sequence.
func Fetch(conn net.Conn, path string, compressed bool) ([]byte, error) {
	if err := writeHeader(conn, opGet, compressed, path); err != nil {
		return nil, err
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return nil, err
	}
	if status[0] != statusOK {
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return nil, err
		}
		msg := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
		io.ReadFull(conn, msg)
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	var sizes [16]byte
	if _, err := io.ReadFull(conn, sizes[:]); err != nil {
		return nil, err
	}
	rawSize := binary.BigEndian.Uint64(sizes[:8])
	wireSize := binary.BigEndian.Uint64(sizes[8:])
	if rawSize > maxFileSize || wireSize > maxFileSize {
		return nil, errors.New("filechan: oversized transfer")
	}
	payload := make([]byte, wireSize)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	if !compressed {
		return payload, nil
	}
	return gunzipExact(payload, rawSize)
}

// Put uploads data to path over the channel — the write-back direction
// (compress, upload, uncompress on the server).
func Put(conn net.Conn, path string, data []byte, compressed bool) error {
	payload := data
	if compressed {
		var err error
		payload, err = gzipBytes(data)
		if err != nil {
			return err
		}
	}
	if err := writeHeader(conn, opPut, compressed, path); err != nil {
		return err
	}
	var szBuf [8]byte
	binary.BigEndian.PutUint64(szBuf[:], uint64(len(payload)))
	if _, err := conn.Write(szBuf[:]); err != nil {
		return err
	}
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	return readStatus(conn)
}

// Copy transfers one file from a remote store to a local byte slice
// without compression — the behaviour of plain SCP full-file copying,
// used as the paper's baseline (1127 s for a whole VM image).
func Copy(conn net.Conn, path string) ([]byte, error) {
	return Fetch(conn, path, false)
}

func gzipBytes(data []byte) ([]byte, error) {
	buf := make(sliceBuffer, 0, len(data)/8) // about what VM state gzips to; append takes it from there
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf, nil
}

func gunzipBytes(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(io.LimitReader(zr, maxFileSize))
}

// gunzipExact is gunzipBytes for a stream whose uncompressed size the
// sender declared: one buffer of that size, and an error for a stream
// that is shorter or longer.
func gunzipExact(data []byte, size uint64) ([]byte, error) {
	if size/1032 > uint64(len(data)) { // deflate never expands further: refuse before allocating
		return nil, fmt.Errorf("filechan: size mismatch: %d bytes cannot gunzip to the declared %d", len(data), size)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	out := make([]byte, size)
	if n, err := io.ReadFull(zr, out); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = fmt.Errorf("filechan: size mismatch: got %d want %d", n, size)
		}
		return nil, err
	}
	// The stream must end here; reading its end also checks the trailer.
	var past [1]byte
	if n, err := io.ReadFull(zr, past[:]); n != 0 {
		return nil, fmt.Errorf("filechan: size mismatch: stream longer than the declared %d bytes", size)
	} else if err != io.EOF {
		return nil, err
	}
	return out, nil
}

type sliceBuffer []byte

func (b *sliceBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
