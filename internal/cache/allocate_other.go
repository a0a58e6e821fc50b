//go:build !linux

package cache

import "os"

// allocate extends f to size bytes; without fallocate a full device
// shows as a fault in a later copy into the mapping.
func allocate(f *os.File, size int64) error { return f.Truncate(size) }
