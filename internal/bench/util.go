package bench

import (
	"io"
	"net"

	"gvfs/internal/filechan"
)

// uploadZeros pushes size zero bytes uncompressed over an open file
// channel.
func uploadZeros(conn net.Conn, path string, size uint64) error {
	return filechan.PutFrom(conn, path, io.LimitReader(zeros{}, int64(size)), size, false)
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
