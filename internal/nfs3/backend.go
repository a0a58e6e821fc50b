package nfs3

// Backend is the storage interface an NFSv3 server exports. Two
// implementations exist: memfs (in-memory, used heavily by tests and
// benchmarks) and osfs (backed by a directory on the host filesystem,
// used by the daemons). A backend's error reaches the client as the
// status StatusOf reads from it: an *Error's, or NFS3ERR_IO.
//
// All methods must be safe for concurrent use: the RPC server invokes
// handlers from multiple goroutines.
type Backend interface {
	// Root returns the handle of the export root.
	Root() (FH, error)

	// GetAttr returns the attributes of the object.
	GetAttr(fh FH) (Fattr, error)

	// SetAttr applies the requested attribute changes and returns the
	// resulting attributes.
	SetAttr(fh FH, s SetAttr) (Fattr, error)

	// Lookup resolves name within directory dir.
	Lookup(dir FH, name string) (FH, Fattr, error)

	// ReadLink returns the target of a symbolic link.
	ReadLink(fh FH) (string, error)

	// Read returns up to count bytes at off, reporting EOF when the
	// read reaches or passes the end of the file.
	Read(fh FH, off uint64, count uint32) (data []byte, eof bool, err error)

	// Write stores data at off, extending the file if needed, and
	// returns the post-write attributes. data is borrowed for the call
	// (the server passes a slice of the RPC request record, which is
	// recycled once the reply is sent): copy what must outlive it.
	Write(fh FH, off uint64, data []byte) (Fattr, error)

	// Create makes a regular file. With guarded set, an existing name
	// is an error; otherwise an existing regular file is truncated per
	// the requested attributes.
	Create(dir FH, name string, attr SetAttr, guarded bool) (FH, Fattr, error)

	// Mkdir makes a directory.
	Mkdir(dir FH, name string, attr SetAttr) (FH, Fattr, error)

	// Symlink makes a symbolic link to target.
	Symlink(dir FH, name, target string) (FH, Fattr, error)

	// Remove unlinks a non-directory.
	Remove(dir FH, name string) error

	// Rmdir removes an empty directory.
	Rmdir(dir FH, name string) error

	// Rename moves fromDir/fromName to toDir/toName, replacing any
	// existing non-directory target.
	Rename(fromDir FH, fromName string, toDir FH, toName string) error

	// ReadDir lists entries starting after cookie (0 = from start).
	// Implementations return at most as many entries as fit in
	// maxBytes of encoded reply and report eof when the listing is
	// complete.
	ReadDir(dir FH, cookie uint64, maxBytes uint32) ([]DirEntry, bool, error)

	// FSStat reports filesystem capacity and usage.
	FSStat(fh FH) (FSStatRes, error)

	// Commit forces buffered writes for the file to stable storage.
	Commit(fh FH) error
}

// Linker is a Backend that makes hard links. A Server over a Backend that
// is not one answers LINK with NFS3ERR_NOTSUPP.
type Linker interface {
	// Link makes dir/name another name for the non-directory fh.
	Link(fh, dir FH, name string) error
}
