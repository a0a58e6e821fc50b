// Package backend defines the proxy↔upstream boundary: the narrow
// interface a GVFS proxy needs from whatever holds the authoritative
// bytes. The paper assumes the upstream is always a WAN NFSv3 server,
// but the proxy's caching machinery only ever needs "read a byte
// range, write a byte range durably, commit, stat, and tell me if you
// are alive" — so that contract is extracted here and the NFSv3
// client becomes one implementation (internal/backend/nfs3be) beside
// an object-store implementation (internal/backend/objstore) usable
// in tests and benchmarks without an nfsd.
//
// The package is a leaf: it imports only the standard library and the
// buffer pool, so the cache and proxy layers can depend on it without
// dragging RPC wire types onto the data path.
package backend

import (
	"time"

	"gvfs/internal/bufpool"
)

// FileID names a file at the backend. For nfs3be it is the opaque NFS
// file handle; for objstore it is the object path. The proxy treats
// it as an opaque byte string of at most MaxFileID bytes.
type FileID []byte

// MaxFileID is the longest FileID a backend may hand out: a FileID
// travels as the NFS file handle (it equals nfs3.MaxFHSize, which every
// handle decoder enforces) and is stored in the write-back journal. A
// backend whose names can grow past it refuses them where it makes them
// (objstore: NFS3ERR_NAMETOOLONG from Lookup, Create and Root).
const MaxFileID = 1 << 10

// Key returns the FileID as a map key.
func (f FileID) Key() string { return string(f) }

// CallOpts carries per-call context across the boundary. The zero
// value means "no deadline, no trace, the backend's own credential".
type CallOpts struct {
	// Deadline, when nonzero, bounds the call (including transport
	// retries). An expired deadline surfaces as a ClassTimeout error.
	Deadline time.Time

	// TraceID and Hop propagate the request trace to upstreams that
	// can carry it (nfs3be encodes them in the RPC verifier). TraceID
	// zero means budget-only or no trace.
	TraceID uint64
	Hop     uint32

	// Cred is who the call runs as upstream; backends that authenticate
	// (nfs3be) stamp it on the call.
	Cred Cred
}

// Remaining is the budget left before the call's deadline, and whether
// the call has one. An expired deadline leaves zero or less; what that
// means is the caller's rule.
func (o *CallOpts) Remaining() (time.Duration, bool) {
	if o.Deadline.IsZero() {
		return 0, false
	}
	return time.Until(o.Deadline), true
}

// Cred is a credential as an RPC auth flavor and its opaque body, in
// plain types so that this package need not know RPC. The zero value —
// no flavor, no body, which is also AUTH_NONE — asks for the backend's
// own default credential. A backend that keeps a Cred past the call
// (replbe's replication queue) copies its Body.
type Cred struct {
	Flavor uint32
	Body   []byte
}

// IsZero reports whether c names no credential.
func (c Cred) IsZero() bool { return c.Flavor == 0 && len(c.Body) == 0 }

// Time is a point in time as NFSv3 carries it (nfstime3).
type Time struct{ Sec, Nsec uint32 }

// File types (NFSv3's ftype3) a backend reports in Attr.Type.
const (
	TypeReg = 1
	TypeDir = 2
)

// Attr is a file's attributes, NFSv3's fattr3 field for field in plain
// integers, so that what an upstream said of a file reaches the proxy's
// client whole. Type 0, which no file has, means "not known".
type Attr struct {
	Type                 uint32
	Mode                 uint32
	Nlink                uint32
	UID                  uint32
	GID                  uint32
	Size                 uint64
	Used                 uint64
	RdevMajor, RdevMinor uint32
	FSID                 uint64
	FileID               uint64
	Atime, Mtime, Ctime  Time
}

// Known reports whether a holds attributes.
func (a Attr) Known() bool { return a.Type != 0 }

// PreAttr is a file's size and times from just before a call changed it
// (NFSv3's wcc_attr).
type PreAttr struct {
	Size         uint64
	Mtime, Ctime Time
}

// WriteResult is what a Write reports of the file around it, NFSv3's
// wcc_data by value: Before, when HasBefore, and After, when Known.
type WriteResult struct {
	Before    PreAttr
	HasBefore bool
	After     Attr
}

// ReadResult is one Read's outcome, owned by whoever receives it. Data
// may alias Buf, a pooled reply record (nfs3be sets it; nil elsewhere):
// it is valid until Release, which the receiver calls once, after
// copying what it keeps, or never — the GC then takes the record. The
// zero value has nothing to release.
type ReadResult struct {
	Data []byte
	EOF  bool
	Attr Attr   // post-op attributes, when Known
	Buf  []byte // the bufpool buffer Data aliases, if any
}

// Release returns Buf to the pool: Data, in every copy of r, is dead.
func (r ReadResult) Release() { bufpool.Put(r.Buf) }

// Caps advertises what a backend can do, so the proxy can enable
// optional machinery (hash-hinted dedup) without type-switching on
// concrete implementations for policy.
type Caps struct {
	// Name labels the backend in logs and metrics ("nfs3", "objstore").
	Name string

	// ContentHashes is set when the backend knows block content
	// hashes without transferring the data (see Hasher).
	ContentHashes bool
}

// Backend is the upstream contract for the proxy data path: READ and
// WRITE misses, write-back of dirty frames, commit, size probing, and
// the circuit breaker's health probe all go through it.
//
// Error discipline: every non-nil error should be (or wrap) a
// *backend.Error so callers can dispatch on its Class; see Classify.
type Backend interface {
	// Read returns up to count bytes at off. Short reads at EOF set
	// ReadResult.EOF; reads entirely past EOF return empty data with
	// EOF set, not an error.
	Read(f FileID, off uint64, count uint32, opts CallOpts) (ReadResult, error)

	// Write stores data at off with durable (FILE_SYNC-equivalent)
	// semantics: when Write returns nil the bytes survive a backend
	// crash. The write-back cache depends on this to mark frames
	// clean. Returns the file's attributes around the write, as far as
	// they are known.
	Write(f FileID, off uint64, data []byte, opts CallOpts) (WriteResult, error)

	// Commit makes previously written data durable. With Write already
	// durable it is a no-op for both bundled backends, but the proxy
	// calls it where NFS COMMIT semantics require.
	Commit(f FileID, opts CallOpts) error

	// GetAttr returns the file's attributes (the proxy mainly wants
	// Size for EOF computation).
	GetAttr(f FileID, opts CallOpts) (Attr, error)

	// Probe is the circuit breaker's recovery check: nil means the
	// backend is reachable (even if individual files error).
	Probe() error

	// Caps reports the backend's capabilities.
	Caps() Caps

	// Close releases resources owned by the backend. It does not
	// close transports owned by the caller.
	Close() error
}

// Lookuper resolves a name in a directory. The proxy's meta-data
// machinery uses it to find .meta companion files.
type Lookuper interface {
	Lookup(dir FileID, name string, opts CallOpts) (FileID, Attr, error)
}

// Namespacer is implemented by backends that can serve as the whole
// upstream — no raw RPC relay behind them. The proxy uses it to
// synthesize MOUNT/LOOKUP/CREATE replies when Config.Upstream is nil.
type Namespacer interface {
	Lookuper

	// Root resolves an export path to its root FileID.
	Root(dirpath string) (FileID, Attr, error)

	// Create makes an empty regular file.
	Create(dir FileID, name string, opts CallOpts) (FileID, Attr, error)
}

// Hasher is implemented by content-addressed backends that know block
// hashes without transferring data. BlockHash returns the hash of
// block's content and the content's length; ok is false when the
// backend cannot answer for this file/blockSize (wrong manifest block
// size, unknown file), in which case the caller falls back to a
// normal Read.
type Hasher interface {
	BlockHash(f FileID, block uint64, blockSize int) (h Hash, n uint32, ok bool)
}

// TransportStats mirrors the fault-tolerant RPC client's counters so
// the proxy's metrics bridges stay backend-agnostic.
type TransportStats struct {
	Retries    uint64
	Reconnects uint64
	Timeouts   uint64
}

// TransportStatser exposes transport-level retry counters.
type TransportStatser interface {
	TransportStats() TransportStats
}
