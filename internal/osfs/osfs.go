// Package osfs implements nfs3.Backend on top of a directory of the
// host filesystem, for the standalone daemons (cmd/nfsd, cmd/gvfsd):
// a real image server exports a real directory of .vmx/.vmss/.vmdk
// files. File handles are stable numeric IDs mapped to relative paths
// for the lifetime of the server.
//
// osfs also satisfies filechan.FileStore, so one exported directory
// backs both the NFS and file-channel services.
package osfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"gvfs/internal/nfs3"
)

// FS exports a host directory.
type FS struct {
	root string

	mu     sync.Mutex
	byID   map[uint64]string // id -> relative path ("" = root)
	byPath map[string]uint64
	nextID uint64
}

// New returns an FS rooted at dir (which must exist).
func New(dir string) (*FS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, &nfs3.Error{Status: nfs3.ErrNotDir, Op: dir}
	}
	fs := &FS{
		root:   abs,
		byID:   map[uint64]string{1: ""},
		byPath: map[string]uint64{"": 1},
		nextID: 2,
	}
	return fs, nil
}

// idFor returns (allocating if needed) the handle ID for rel.
func (fs *FS) idFor(rel string) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id, ok := fs.byPath[rel]; ok {
		return id
	}
	id := fs.nextID
	fs.nextID++
	fs.byID[id] = rel
	fs.byPath[rel] = id
	return id
}

func (fs *FS) relOf(fh nfs3.FH) (string, error) {
	if len(fh) != 8 {
		return "", &nfs3.Error{Status: nfs3.ErrBadHandle}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rel, ok := fs.byID[binary.BigEndian.Uint64(fh)]
	if !ok {
		return "", &nfs3.Error{Status: nfs3.ErrStale}
	}
	return rel, nil
}

func fhOf(id uint64) nfs3.FH {
	fh := make(nfs3.FH, 8)
	binary.BigEndian.PutUint64(fh, id)
	return fh
}

// hostPath maps a relative path under the export root, rejecting
// escapes.
func (fs *FS) hostPath(rel string) (string, error) {
	clean := filepath.Clean("/" + rel)
	return filepath.Join(fs.root, clean), nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\x00") {
		return &nfs3.Error{Status: nfs3.ErrInval, Op: "name " + name}
	}
	if len(name) > 255 {
		return &nfs3.Error{Status: nfs3.ErrNameTooLong}
	}
	return nil
}

func mapError(op string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, syscall.ENOTEMPTY):
		return &nfs3.Error{Status: nfs3.ErrNotEmpty, Op: op}
	case errors.Is(err, syscall.EISDIR):
		return &nfs3.Error{Status: nfs3.ErrIsDir, Op: op}
	case errors.Is(err, syscall.ENOTDIR):
		return &nfs3.Error{Status: nfs3.ErrNotDir, Op: op}
	case os.IsNotExist(err):
		return &nfs3.Error{Status: nfs3.ErrNoEnt, Op: op}
	case os.IsExist(err):
		return &nfs3.Error{Status: nfs3.ErrExist, Op: op}
	case os.IsPermission(err):
		return &nfs3.Error{Status: nfs3.ErrAcces, Op: op}
	}
	return &nfs3.Error{Status: nfs3.ErrIO, Op: op}
}

func attrOf(id uint64, info os.FileInfo) nfs3.Fattr {
	a := nfs3.Fattr{
		Mode:   uint32(info.Mode().Perm()),
		Nlink:  1,
		Size:   uint64(info.Size()),
		Used:   uint64(info.Size()),
		FSID:   0x6f736673, // "osfs"
		FileID: id,
	}
	switch {
	case info.IsDir():
		a.Type = nfs3.TypeDir
		a.Nlink = 2
	case info.Mode()&os.ModeSymlink != 0:
		a.Type = nfs3.TypeLnk
	default:
		a.Type = nfs3.TypeReg
	}
	mt := info.ModTime()
	a.Mtime = nfs3.Time{Sec: uint32(mt.Unix()), Nsec: uint32(mt.Nanosecond())}
	a.Atime, a.Ctime = a.Mtime, a.Mtime
	return a
}

// Root implements nfs3.Backend.
func (fs *FS) Root() (nfs3.FH, error) { return fhOf(1), nil }

// GetAttr implements nfs3.Backend.
func (fs *FS) GetAttr(fh nfs3.FH) (nfs3.Fattr, error) {
	rel, err := fs.relOf(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	host, _ := fs.hostPath(rel)
	info, serr := os.Lstat(host)
	if serr != nil {
		return nfs3.Fattr{}, mapError("getattr", serr)
	}
	return attrOf(fs.idFor(rel), info), nil
}

// SetAttr implements nfs3.Backend.
func (fs *FS) SetAttr(fh nfs3.FH, s nfs3.SetAttr) (nfs3.Fattr, error) {
	rel, err := fs.relOf(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	host, _ := fs.hostPath(rel)
	if s.Mode != nil {
		if err := os.Chmod(host, os.FileMode(*s.Mode)&os.ModePerm); err != nil {
			return nfs3.Fattr{}, mapError("setattr", err)
		}
	}
	if s.Size != nil {
		if err := os.Truncate(host, int64(*s.Size)); err != nil {
			return nfs3.Fattr{}, mapError("setattr", err)
		}
	}
	return fs.GetAttr(fh)
}

// Lookup implements nfs3.Backend.
func (fs *FS) Lookup(dir nfs3.FH, name string) (nfs3.FH, nfs3.Fattr, error) {
	rel, err := fs.relOf(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if name == "." || name == "" {
		a, err := fs.GetAttr(dir)
		return dir, a, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	childRel := filepath.Join(rel, name)
	host, _ := fs.hostPath(childRel)
	info, serr := os.Lstat(host)
	if serr != nil {
		return nil, nfs3.Fattr{}, mapError("lookup "+name, serr)
	}
	id := fs.idFor(childRel)
	return fhOf(id), attrOf(id, info), nil
}

// ReadLink implements nfs3.Backend.
func (fs *FS) ReadLink(fh nfs3.FH) (string, error) {
	rel, err := fs.relOf(fh)
	if err != nil {
		return "", err
	}
	host, _ := fs.hostPath(rel)
	target, serr := os.Readlink(host)
	if serr != nil {
		return "", mapError("readlink", serr)
	}
	return target, nil
}

// Read implements nfs3.Backend.
func (fs *FS) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	rel, err := fs.relOf(fh)
	if err != nil {
		return nil, false, err
	}
	host, _ := fs.hostPath(rel)
	f, serr := os.Open(host)
	if serr != nil {
		return nil, false, mapError("read", serr)
	}
	defer f.Close()
	buf := make([]byte, count)
	n, rerr := f.ReadAt(buf, int64(off))
	if rerr != nil && rerr != io.EOF {
		return nil, false, mapError("read", rerr)
	}
	info, serr := f.Stat()
	if serr != nil {
		return nil, false, mapError("read", serr)
	}
	eof := off+uint64(n) >= uint64(info.Size())
	return buf[:n], eof, nil
}

// Write implements nfs3.Backend.
func (fs *FS) Write(fh nfs3.FH, off uint64, data []byte) (nfs3.Fattr, error) {
	rel, err := fs.relOf(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	host, _ := fs.hostPath(rel)
	f, serr := os.OpenFile(host, os.O_WRONLY, 0)
	if serr != nil {
		return nfs3.Fattr{}, mapError("write", serr)
	}
	defer f.Close()
	if _, werr := f.WriteAt(data, int64(off)); werr != nil {
		return nfs3.Fattr{}, mapError("write", werr)
	}
	return fs.GetAttr(fh)
}

// Create implements nfs3.Backend.
func (fs *FS) Create(dir nfs3.FH, name string, attr nfs3.SetAttr, guarded bool) (nfs3.FH, nfs3.Fattr, error) {
	rel, err := fs.relOf(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	childRel := filepath.Join(rel, name)
	host, _ := fs.hostPath(childRel)
	flags := os.O_RDWR | os.O_CREATE
	if guarded {
		flags |= os.O_EXCL
	} else if attr.Size != nil && *attr.Size == 0 {
		flags |= os.O_TRUNC
	}
	mode := os.FileMode(0644)
	if attr.Mode != nil {
		mode = os.FileMode(*attr.Mode) & os.ModePerm
	}
	f, serr := os.OpenFile(host, flags, mode)
	if serr != nil {
		return nil, nfs3.Fattr{}, mapError("create "+name, serr)
	}
	f.Close()
	return fs.Lookup(dir, name)
}

// Mkdir implements nfs3.Backend.
func (fs *FS) Mkdir(dir nfs3.FH, name string, attr nfs3.SetAttr) (nfs3.FH, nfs3.Fattr, error) {
	rel, err := fs.relOf(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	host, _ := fs.hostPath(filepath.Join(rel, name))
	mode := os.FileMode(0755)
	if attr.Mode != nil {
		mode = os.FileMode(*attr.Mode) & os.ModePerm
	}
	if serr := os.Mkdir(host, mode); serr != nil {
		return nil, nfs3.Fattr{}, mapError("mkdir "+name, serr)
	}
	return fs.Lookup(dir, name)
}

// Symlink implements nfs3.Backend.
func (fs *FS) Symlink(dir nfs3.FH, name, target string) (nfs3.FH, nfs3.Fattr, error) {
	rel, err := fs.relOf(dir)
	if err != nil {
		return nil, nfs3.Fattr{}, err
	}
	if err := checkName(name); err != nil {
		return nil, nfs3.Fattr{}, err
	}
	host, _ := fs.hostPath(filepath.Join(rel, name))
	if serr := os.Symlink(target, host); serr != nil {
		return nil, nfs3.Fattr{}, mapError("symlink "+name, serr)
	}
	return fs.Lookup(dir, name)
}

// Remove implements nfs3.Backend.
func (fs *FS) Remove(dir nfs3.FH, name string) error {
	return fs.removeCommon(dir, name, false)
}

// Rmdir implements nfs3.Backend.
func (fs *FS) Rmdir(dir nfs3.FH, name string) error {
	return fs.removeCommon(dir, name, true)
}

func (fs *FS) removeCommon(dir nfs3.FH, name string, wantDir bool) error {
	rel, err := fs.relOf(dir)
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	childRel := filepath.Join(rel, name)
	host, _ := fs.hostPath(childRel)
	info, serr := os.Lstat(host)
	if serr != nil {
		return mapError("remove "+name, serr)
	}
	if wantDir != info.IsDir() {
		if wantDir {
			return &nfs3.Error{Status: nfs3.ErrNotDir, Op: name}
		}
		return &nfs3.Error{Status: nfs3.ErrIsDir, Op: name}
	}
	if serr := os.Remove(host); serr != nil {
		return mapError("remove "+name, serr)
	}
	fs.mu.Lock()
	if id, ok := fs.byPath[childRel]; ok {
		delete(fs.byPath, childRel)
		delete(fs.byID, id)
	}
	fs.mu.Unlock()
	return nil
}

// Rename implements nfs3.Backend.
func (fs *FS) Rename(fromDir nfs3.FH, fromName string, toDir nfs3.FH, toName string) error {
	fromRel, err := fs.relOf(fromDir)
	if err != nil {
		return err
	}
	toRel, err := fs.relOf(toDir)
	if err != nil {
		return err
	}
	if err := checkName(fromName); err != nil {
		return err
	}
	if err := checkName(toName); err != nil {
		return err
	}
	oldRel := filepath.Join(fromRel, fromName)
	newRel := filepath.Join(toRel, toName)
	oldHost, _ := fs.hostPath(oldRel)
	newHost, _ := fs.hostPath(newRel)
	if serr := os.Rename(oldHost, newHost); serr != nil {
		return mapError("rename", serr)
	}
	fs.mu.Lock()
	if id, ok := fs.byPath[oldRel]; ok {
		delete(fs.byPath, oldRel)
		if victim, exists := fs.byPath[newRel]; exists {
			delete(fs.byID, victim)
		}
		fs.byPath[newRel] = id
		fs.byID[id] = newRel
	}
	fs.mu.Unlock()
	return nil
}

// ReadDir implements nfs3.Backend.
func (fs *FS) ReadDir(dir nfs3.FH, cookie uint64, maxBytes uint32) ([]nfs3.DirEntry, bool, error) {
	rel, err := fs.relOf(dir)
	if err != nil {
		return nil, false, err
	}
	host, _ := fs.hostPath(rel)
	entries, serr := os.ReadDir(host)
	if serr != nil {
		return nil, false, mapError("readdir", serr)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var out []nfs3.DirEntry
	used := uint32(0)
	for i := int(min(cookie, uint64(len(names)))); i < len(names); i++ {
		cost := uint32(24 + len(names[i]) + 8)
		if used+cost > maxBytes && len(out) > 0 {
			return out, false, nil
		}
		used += cost
		childRel := filepath.Join(rel, names[i])
		id := fs.idFor(childRel)
		ent := nfs3.DirEntry{FileID: id, Name: names[i], Cookie: uint64(i + 1)}
		if info, err := os.Lstat(filepath.Join(host, names[i])); err == nil {
			a := attrOf(id, info)
			ent.Attr = &a
			ent.Handle = fhOf(id)
		}
		out = append(out, ent)
	}
	return out, true, nil
}

// FSStat implements nfs3.Backend.
func (fs *FS) FSStat(fh nfs3.FH) (nfs3.FSStatRes, error) {
	if _, err := fs.relOf(fh); err != nil {
		return nfs3.FSStatRes{}, err
	}
	const capacity = 64 << 30
	return nfs3.FSStatRes{
		TotalBytes: capacity, FreeBytes: capacity / 2, AvailBytes: capacity / 2,
		TotalFiles: 1 << 20, FreeFiles: 1 << 19, AvailFiles: 1 << 19,
	}, nil
}

// Commit implements nfs3.Backend.
func (fs *FS) Commit(fh nfs3.FH) error {
	rel, err := fs.relOf(fh)
	if err != nil {
		return err
	}
	host, _ := fs.hostPath(rel)
	f, serr := os.Open(host)
	if serr != nil {
		return mapError("commit", serr)
	}
	defer f.Close()
	if serr := f.Sync(); serr != nil {
		return mapError("commit", serr)
	}
	return nil
}

// --- filechan.FileStore ---

// OpenFile implements filechan.FileStore against the export root: a
// reader of the file at path and its size. The reader fails if the
// file's size or modification time moved by the time it reaches the end.
func (fs *FS) OpenFile(path string) (io.ReadCloser, uint64, error) {
	host, _ := fs.hostPath(path)
	f, err := os.Open(host)
	if err != nil {
		return nil, 0, mapError("openfile "+path, err)
	}
	info, err := f.Stat()
	if err == nil && !info.Mode().IsRegular() {
		err = syscall.EISDIR
	}
	if err != nil {
		f.Close()
		return nil, 0, mapError("openfile "+path, err)
	}
	return &fileReader{f: f, path: path, info: info}, uint64(info.Size()), nil
}

// fileReader reads a file as it was when opened.
type fileReader struct {
	f    *os.File
	path string
	info os.FileInfo // at open
	off  int64
}

func (r *fileReader) Read(p []byte) (int, error) {
	left := r.info.Size() - r.off
	if left == 0 {
		return 0, r.checkUnchanged()
	}
	if int64(len(p)) > left {
		p = p[:left]
	}
	n, err := r.f.Read(p)
	r.off += int64(n)
	if err == io.EOF {
		err = fmt.Errorf("osfs: %s shrank while it was read", r.path)
	}
	return n, err
}

// checkUnchanged returns io.EOF if the file still has the size and
// modification time it was opened with.
func (r *fileReader) checkUnchanged() error {
	now, err := r.f.Stat()
	if err != nil {
		return err
	}
	if now.Size() != r.info.Size() || !now.ModTime().Equal(r.info.ModTime()) {
		return fmt.Errorf("osfs: %s changed while it was read", r.path)
	}
	return io.EOF
}

func (r *fileReader) Close() error { return r.f.Close() }

// WriteFileFrom implements filechan.FileStore against the export root.
// The upload goes to a temporary file beside path and is renamed over
// it once whole, so a dropped upload leaves the old copy.
func (fs *FS) WriteFileFrom(path string, r io.Reader, size uint64) error {
	host, _ := fs.hostPath(path)
	dir := filepath.Dir(host)
	if err := os.MkdirAll(dir, 0755); err != nil {
		return mapError("writefile "+path, err)
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(host)+".upload-*")
	if err != nil {
		return mapError("writefile "+path, err)
	}
	err = writeTemp(tmp, r, size, host)
	if err == nil {
		err = os.Rename(tmp.Name(), host)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return mapError("writefile "+path, err)
	}
	return nil
}

// writeTemp fills and closes tmp: size bytes from r, durable, with the
// mode of the file it replaces (0644 for a new one).
func writeTemp(tmp *os.File, r io.Reader, size uint64, replaces string) error {
	mode := os.FileMode(0644)
	if info, err := os.Stat(replaces); err == nil {
		mode = info.Mode().Perm()
	}
	n, err := io.Copy(tmp, r)
	if err == nil && uint64(n) != size {
		err = fmt.Errorf("osfs: upload of %d bytes ended at %d", size, n)
	}
	if err == nil {
		err = tmp.Chmod(mode)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return err
}
