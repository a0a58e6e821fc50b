// Package memfs provides an in-memory hierarchical filesystem that
// implements nfs3.Backend. It is the backing store for the userspace
// NFS servers in tests, examples and benchmarks, standing in for the
// image server's local disk. File handles are 8-byte big-endian node
// IDs; all operations are safe for concurrent use.
package memfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"gvfs/internal/nfs3"
)

type node struct {
	id                  uint64
	ftype               nfs3.FileType
	mode                uint32
	uid, gid            uint32
	data                []byte
	children            map[string]*node
	target              string // symlink
	nlink               uint32
	atime, mtime, ctime nfs3.Time
}

// FS is an in-memory filesystem.
type FS struct {
	mu     sync.RWMutex
	nodes  map[uint64]*node
	root   *node
	nextID uint64
	clock  uint32 // logical clock for deterministic timestamps
}

// New returns an empty filesystem with a root directory.
func New() *FS {
	fs := &FS{nodes: make(map[uint64]*node), nextID: 2}
	fs.root = &node{
		id:       1,
		ftype:    nfs3.TypeDir,
		mode:     0755,
		children: make(map[string]*node),
		nlink:    2,
	}
	fs.nodes[1] = fs.root
	return fs
}

func (fs *FS) tick() nfs3.Time {
	fs.clock++
	return nfs3.Time{Sec: fs.clock, Nsec: 0}
}

func fhOf(id uint64) nfs3.FH {
	fh := make(nfs3.FH, 8)
	binary.BigEndian.PutUint64(fh, id)
	return fh
}

func (fs *FS) get(fh nfs3.FH) (*node, error) {
	if len(fh) != 8 {
		return nil, &nfs3.Error{Status: nfs3.ErrBadHandle}
	}
	n, ok := fs.nodes[binary.BigEndian.Uint64(fh)]
	if !ok {
		return nil, &nfs3.Error{Status: nfs3.ErrStale}
	}
	return n, nil
}

func (fs *FS) getDir(fh nfs3.FH) (*node, error) {
	n, err := fs.get(fh)
	if err != nil {
		return nil, err
	}
	if n.ftype != nfs3.TypeDir {
		return nil, &nfs3.Error{Status: nfs3.ErrNotDir}
	}
	return n, nil
}

func (n *node) attr() nfs3.Fattr {
	size := uint64(len(n.data))
	if n.ftype == nfs3.TypeLnk {
		size = uint64(len(n.target))
	}
	return nfs3.Fattr{
		Type:   n.ftype,
		Mode:   n.mode,
		Nlink:  n.nlink,
		UID:    n.uid,
		GID:    n.gid,
		Size:   size,
		Used:   size,
		FSID:   0x6d656d6673, // "memfs"
		FileID: n.id,
		Atime:  n.atime,
		Mtime:  n.mtime,
		Ctime:  n.ctime,
	}
}

// Root implements nfs3.Backend.
func (fs *FS) Root() (nfs3.FH, error) { return fhOf(1), nil }

// GetAttr implements nfs3.Backend.
func (fs *FS) GetAttr(fh nfs3.FH) (nfs3.Fattr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	return n.attr(), nil
}

// SetAttr implements nfs3.Backend.
func (fs *FS) SetAttr(fh nfs3.FH, s nfs3.SetAttr) (nfs3.Fattr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	if s.Mode != nil {
		n.mode = *s.Mode
	}
	if s.UID != nil {
		n.uid = *s.UID
	}
	if s.GID != nil {
		n.gid = *s.GID
	}
	if s.Size != nil {
		if n.ftype == nfs3.TypeDir {
			return nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrIsDir}
		}
		sz := *s.Size
		if sz <= uint64(len(n.data)) {
			n.data = n.data[:sz]
		} else {
			n.data = append(n.data, make([]byte, sz-uint64(len(n.data)))...)
		}
		n.mtime = fs.tick()
	}
	switch s.AtimeHow {
	case nfs3.SetToServer:
		n.atime = fs.tick()
	case nfs3.SetToClient:
		n.atime = s.Atime
	}
	switch s.MtimeHow {
	case nfs3.SetToServer:
		n.mtime = fs.tick()
	case nfs3.SetToClient:
		n.mtime = s.Mtime
	}
	n.ctime = fs.tick()
	return n.attr(), nil
}

// Lookup implements nfs3.Backend.
func (fs *FS) Lookup(dir nfs3.FH, name string) (nfs3.FH, nfs3.Fattr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	switch name {
	case ".", "":
		return fhOf(d.id), d.attr(), nil
	}
	child, ok := d.children[name]
	if !ok {
		return nil, nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrNoEnt, Op: "lookup " + name}
	}
	return fhOf(child.id), child.attr(), nil
}

// ReadLink implements nfs3.Backend.
func (fs *FS) ReadLink(fh nfs3.FH) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(fh)
	if err != nil {
		return "", err
	}
	if n.ftype != nfs3.TypeLnk {
		return "", &nfs3.Error{Status: nfs3.ErrInval}
	}
	return n.target, nil
}

// Read implements nfs3.Backend.
func (fs *FS) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(fh)
	if err != nil {
		return nil, false, err
	}
	if n.ftype == nfs3.TypeDir {
		return nil, false, &nfs3.Error{Status: nfs3.ErrIsDir}
	}
	size := uint64(len(n.data))
	if off >= size {
		return nil, true, nil
	}
	end := off + uint64(count)
	if end > size {
		end = size
	}
	out := make([]byte, end-off)
	copy(out, n.data[off:end])
	return out, end == size, nil
}

// Write implements nfs3.Backend.
func (fs *FS) Write(fh nfs3.FH, off uint64, data []byte) (nfs3.Fattr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	if n.ftype == nfs3.TypeDir {
		return nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrIsDir}
	}
	end := off + uint64(len(data))
	if end > uint64(len(n.data)) {
		n.data = extend(n.data, int(end))
	}
	copy(n.data[off:end], data)
	n.mtime = fs.tick()
	return n.attr(), nil
}

// extend returns b zero-extended to length n, doubling the capacity
// when it runs out. A file written front to back in NFS-sized pieces —
// or a window at a time out of order, as a proxy's pipelined flush
// writes it — then costs about twice its size in discarded arrays
// whatever the piece size; append's 1.25x growth costs five times, and
// more while a piece is larger than a quarter of the file.
func extend(b []byte, n int) []byte {
	old := len(b)
	if n > cap(b) {
		grown := make([]byte, n, max(n, 2*cap(b)))
		copy(grown, b)
		return grown
	}
	b = b[:n]
	clear(b[old:]) // a truncate leaves its tail behind in the array
	return b
}

func (fs *FS) newNode(ftype nfs3.FileType, mode uint32) *node {
	n := &node{
		id:    fs.nextID,
		ftype: ftype,
		mode:  mode,
		nlink: 1,
	}
	if ftype == nfs3.TypeDir {
		n.children = make(map[string]*node)
		n.nlink = 2
	}
	now := fs.tick()
	n.atime, n.mtime, n.ctime = now, now, now
	fs.nextID++
	fs.nodes[n.id] = n
	return n
}

// Create implements nfs3.Backend.
func (fs *FS) Create(dir nfs3.FH, name string, attr nfs3.SetAttr, guarded bool) (nfs3.FH, nfs3.Fattr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if existing, ok := d.children[name]; ok {
		if guarded {
			return nil, nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrExist, Op: "create " + name}
		}
		if existing.ftype != nfs3.TypeReg {
			return nil, nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrExist, Op: "create " + name}
		}
		if attr.Size != nil && *attr.Size == 0 {
			existing.data = existing.data[:0]
			existing.mtime = fs.tick()
		}
		return fhOf(existing.id), existing.attr(), nil
	}
	mode := uint32(0644)
	if attr.Mode != nil {
		mode = *attr.Mode
	}
	n := fs.newNode(nfs3.TypeReg, mode)
	if attr.UID != nil {
		n.uid = *attr.UID
	}
	if attr.GID != nil {
		n.gid = *attr.GID
	}
	d.children[name] = n
	d.mtime = fs.tick()
	return fhOf(n.id), n.attr(), nil
}

// Mkdir implements nfs3.Backend.
func (fs *FS) Mkdir(dir nfs3.FH, name string, attr nfs3.SetAttr) (nfs3.FH, nfs3.Fattr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if _, ok := d.children[name]; ok {
		return nil, nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrExist, Op: "mkdir " + name}
	}
	mode := uint32(0755)
	if attr.Mode != nil {
		mode = *attr.Mode
	}
	n := fs.newNode(nfs3.TypeDir, mode)
	d.children[name] = n
	d.nlink++
	d.mtime = fs.tick()
	return fhOf(n.id), n.attr(), nil
}

// Symlink implements nfs3.Backend.
func (fs *FS) Symlink(dir nfs3.FH, name, target string) (nfs3.FH, nfs3.Fattr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if _, ok := d.children[name]; ok {
		return nil, nfs3.Fattr{}, &nfs3.Error{Status: nfs3.ErrExist, Op: "symlink " + name}
	}
	n := fs.newNode(nfs3.TypeLnk, 0777)
	n.target = target
	d.children[name] = n
	d.mtime = fs.tick()
	return fhOf(n.id), n.attr(), nil
}

// Remove implements nfs3.Backend.
func (fs *FS) Remove(dir nfs3.FH, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	child, ok := d.children[name]
	if !ok {
		return &nfs3.Error{Status: nfs3.ErrNoEnt, Op: "remove " + name}
	}
	if child.ftype == nfs3.TypeDir {
		return &nfs3.Error{Status: nfs3.ErrIsDir, Op: "remove " + name}
	}
	delete(d.children, name)
	fs.unlink(child)
	d.mtime = fs.tick()
	return nil
}

// unlink drops one name of the non-directory n, and n with its last.
func (fs *FS) unlink(n *node) {
	if n.nlink--; n.nlink == 0 {
		delete(fs.nodes, n.id)
	} else {
		n.ctime = fs.tick()
	}
}

// Link implements nfs3.Linker.
func (fs *FS) Link(fh, dir nfs3.FH, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(fh)
	if err != nil {
		return err
	}
	if n.ftype == nfs3.TypeDir {
		return &nfs3.Error{Status: nfs3.ErrIsDir, Op: "link " + name}
	}
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	if _, ok := d.children[name]; ok {
		return &nfs3.Error{Status: nfs3.ErrExist, Op: "link " + name}
	}
	d.children[name] = n
	n.nlink++
	now := fs.tick()
	n.ctime, d.mtime = now, now
	return nil
}

// Rmdir implements nfs3.Backend.
func (fs *FS) Rmdir(dir nfs3.FH, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	child, ok := d.children[name]
	if !ok {
		return &nfs3.Error{Status: nfs3.ErrNoEnt, Op: "rmdir " + name}
	}
	if child.ftype != nfs3.TypeDir {
		return &nfs3.Error{Status: nfs3.ErrNotDir, Op: "rmdir " + name}
	}
	if len(child.children) != 0 {
		return &nfs3.Error{Status: nfs3.ErrNotEmpty, Op: "rmdir " + name}
	}
	delete(d.children, name)
	delete(fs.nodes, child.id)
	d.nlink--
	d.mtime = fs.tick()
	return nil
}

// Rename implements nfs3.Backend.
func (fs *FS) Rename(fromDir nfs3.FH, fromName string, toDir nfs3.FH, toName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, err := fs.getDir(fromDir)
	if err != nil {
		return err
	}
	td, err := fs.getDir(toDir)
	if err != nil {
		return err
	}
	child, ok := fd.children[fromName]
	if !ok {
		return &nfs3.Error{Status: nfs3.ErrNoEnt, Op: "rename " + fromName}
	}
	if err := checkName(toName); err != nil {
		return err
	}
	if child.holds(td) { // a directory into itself or below
		return &nfs3.Error{Status: nfs3.ErrInval, Op: "rename " + fromName}
	}
	if existing, ok := td.children[toName]; ok {
		if existing.ftype == nfs3.TypeDir {
			return &nfs3.Error{Status: nfs3.ErrExist, Op: "rename " + toName}
		}
		if existing == child { // two names of one file: POSIX leaves both
			return nil
		}
		fs.unlink(existing)
	}
	delete(fd.children, fromName)
	td.children[toName] = child
	now := fs.tick()
	fd.mtime, td.mtime = now, now
	return nil
}

// holds reports whether d is n or a directory below it.
func (n *node) holds(d *node) bool {
	if n == d {
		return true
	}
	for _, c := range n.children {
		if c.ftype == nfs3.TypeDir && c.holds(d) {
			return true
		}
	}
	return false
}

// ReadDir implements nfs3.Backend. Cookies are 1-based indexes into the
// sorted name list; maxBytes approximates the encoded reply budget.
func (fs *FS) ReadDir(dir nfs3.FH, cookie uint64, maxBytes uint32) ([]nfs3.DirEntry, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, false, err
	}
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []nfs3.DirEntry
	used := uint32(0)
	for i := int(min(cookie, uint64(len(names)))); i < len(names); i++ {
		child := d.children[names[i]]
		cost := uint32(24 + len(names[i]) + 8)
		if used+cost > maxBytes && len(out) > 0 {
			return out, false, nil
		}
		used += cost
		attr := child.attr()
		out = append(out, nfs3.DirEntry{
			FileID: child.id,
			Name:   names[i],
			Cookie: uint64(i + 1),
			Attr:   &attr,
			Handle: fhOf(child.id),
		})
	}
	return out, true, nil
}

// FSStat implements nfs3.Backend.
func (fs *FS) FSStat(fh nfs3.FH) (nfs3.FSStatRes, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, err := fs.get(fh); err != nil {
		return nfs3.FSStatRes{}, err
	}
	var used uint64
	for _, n := range fs.nodes {
		used += uint64(len(n.data))
	}
	const capacity = 576 << 30 // the paper's LAN image server: 576 GB
	return nfs3.FSStatRes{
		TotalBytes: capacity,
		FreeBytes:  capacity - used,
		AvailBytes: capacity - used,
		TotalFiles: 1 << 20,
		FreeFiles:  1<<20 - uint64(len(fs.nodes)),
		AvailFiles: 1<<20 - uint64(len(fs.nodes)),
		Invarsec:   0,
	}, nil
}

// Commit implements nfs3.Backend. Memory is always "stable" here.
func (fs *FS) Commit(fh nfs3.FH) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, err := fs.get(fh)
	return err
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return &nfs3.Error{Status: nfs3.ErrInval, Op: "name " + name}
	}
	if len(name) > 255 {
		return &nfs3.Error{Status: nfs3.ErrNameTooLong}
	}
	return nil
}

// --- Convenience path-based helpers (test/benchmark setup) ---

func (fs *FS) walk(p string) (*node, error) {
	cur := fs.root
	for _, part := range splitPath(p) {
		if cur.ftype != nfs3.TypeDir {
			return nil, &nfs3.Error{Status: nfs3.ErrNotDir, Op: p}
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, &nfs3.Error{Status: nfs3.ErrNoEnt, Op: p}
		}
		cur = next
	}
	return cur, nil
}

func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// MkdirAll creates a directory path, making parents as needed.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, part := range splitPath(p) {
		next, ok := cur.children[part]
		if !ok {
			next = fs.newNode(nfs3.TypeDir, 0755)
			cur.children[part] = next
			cur.nlink++
		}
		if next.ftype != nfs3.TypeDir {
			return &nfs3.Error{Status: nfs3.ErrNotDir, Op: p}
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the file at path p with data.
func (fs *FS) WriteFile(p string, data []byte) error {
	dir, base := path.Split(path.Clean("/" + p))
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.walk(dir)
	if err != nil {
		return err
	}
	n, ok := d.children[base]
	if !ok {
		n = fs.newNode(nfs3.TypeReg, 0644)
		d.children[base] = n
	}
	if n.ftype != nfs3.TypeReg {
		return &nfs3.Error{Status: nfs3.ErrIsDir, Op: p}
	}
	n.data = append(n.data[:0], data...)
	n.mtime = fs.tick()
	return nil
}

// ReadFile returns the contents of the file at path p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.walk(p)
	if err != nil {
		return nil, err
	}
	if n.ftype != nfs3.TypeReg {
		return nil, &nfs3.Error{Status: nfs3.ErrIsDir, Op: p}
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// OpenFile implements filechan.FileStore: a reader of the file at path
// p and its size. The reader fails once the file's size or times move.
func (fs *FS) OpenFile(p string) (io.ReadCloser, uint64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.walk(p)
	if err != nil {
		return nil, 0, err
	}
	if n.ftype != nfs3.TypeReg {
		return nil, 0, &nfs3.Error{Status: nfs3.ErrIsDir, Op: p}
	}
	r := &fileReader{fs: fs, n: n, size: len(n.data), mtime: n.mtime, ctime: n.ctime, path: p}
	return r, uint64(r.size), nil
}

// fileReader reads a file as it was when opened.
type fileReader struct {
	fs           *FS
	n            *node
	off, size    int
	mtime, ctime nfs3.Time
	path         string
}

func (r *fileReader) Read(p []byte) (int, error) {
	r.fs.mu.RLock()
	defer r.fs.mu.RUnlock()
	if len(r.n.data) != r.size || r.n.mtime != r.mtime || r.n.ctime != r.ctime {
		return 0, fmt.Errorf("memfs: %s changed while it was read", r.path)
	}
	if r.off == r.size {
		return 0, io.EOF
	}
	k := copy(p, r.n.data[r.off:])
	r.off += k
	return k, nil
}

func (r *fileReader) Close() error { return nil }

// WriteFileFrom implements filechan.FileStore: it replaces the file at
// path p with what r yields, and leaves it as it was if r fails.
func (fs *FS) WriteFileFrom(p string, r io.Reader, size uint64) error {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	if uint64(buf.Len()) != size {
		return fmt.Errorf("memfs: %s: got %d of %d bytes", p, buf.Len(), size)
	}
	return fs.WriteFile(p, buf.Bytes())
}

// LookupPath resolves a slash-separated path to a file handle.
func (fs *FS) LookupPath(p string) (nfs3.FH, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.walk(p)
	if err != nil {
		return nil, err
	}
	return fhOf(n.id), nil
}

// Size returns the size of the file at path p.
func (fs *FS) Size(p string) (uint64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.walk(p)
	if err != nil {
		return 0, err
	}
	return uint64(len(n.data)), nil
}
