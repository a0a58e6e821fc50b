package cache

import (
	"os"
	"syscall"
)

// allocate gives f at least size bytes of allocated blocks, so that a
// full device fails here, with ENOSPC, and not as a fault in a later
// copy into the mapping.
func allocate(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if err == syscall.EOPNOTSUPP {
		return f.Truncate(size)
	}
	return err
}
