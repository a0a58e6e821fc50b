package main

import (
	"sync/atomic"
	"time"

	"gvfs/internal/nfs3"
)

// origin is the benchmark-owned wrapper around the origin file system
// (memfs). In timed runs it is a pass-through that counts the calls
// that reached the origin — the denominator of the paper's
// server-offload claim. In traced runs it also records one origin.fs
// span per call. It allocates nothing in either mode, so it does not
// disturb allocs_per_op.
type origin struct {
	nfs3.Backend
	calls atomic.Uint64
	rec   *recorder // nil unless traced
}

func (o *origin) begin() time.Time {
	o.calls.Add(1)
	if o.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

func (o *origin) end(proc string, t0 time.Time) {
	if o.rec != nil {
		o.rec.add(span{Name: spanOriginFS, Proc: proc, Start: o.rec.since(t0), Dur: time.Since(t0).Nanoseconds()})
	}
}

func (o *origin) GetAttr(fh nfs3.FH) (nfs3.Fattr, error) {
	t0 := o.begin()
	a, err := o.Backend.GetAttr(fh)
	o.end("GETATTR", t0)
	return a, err
}

func (o *origin) SetAttr(fh nfs3.FH, s nfs3.SetAttr) (nfs3.Fattr, error) {
	t0 := o.begin()
	a, err := o.Backend.SetAttr(fh, s)
	o.end("SETATTR", t0)
	return a, err
}

func (o *origin) Lookup(dir nfs3.FH, name string) (nfs3.FH, nfs3.Fattr, error) {
	t0 := o.begin()
	fh, a, err := o.Backend.Lookup(dir, name)
	o.end("LOOKUP", t0)
	return fh, a, err
}

func (o *origin) ReadLink(fh nfs3.FH) (string, error) {
	t0 := o.begin()
	s, err := o.Backend.ReadLink(fh)
	o.end("READLINK", t0)
	return s, err
}

func (o *origin) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	t0 := o.begin()
	data, eof, err := o.Backend.Read(fh, off, count)
	o.end("READ", t0)
	return data, eof, err
}

func (o *origin) Write(fh nfs3.FH, off uint64, data []byte) (nfs3.Fattr, error) {
	t0 := o.begin()
	a, err := o.Backend.Write(fh, off, data)
	o.end("WRITE", t0)
	return a, err
}

func (o *origin) Create(dir nfs3.FH, name string, attr nfs3.SetAttr, guarded bool) (nfs3.FH, nfs3.Fattr, error) {
	t0 := o.begin()
	fh, a, err := o.Backend.Create(dir, name, attr, guarded)
	o.end("CREATE", t0)
	return fh, a, err
}

func (o *origin) Mkdir(dir nfs3.FH, name string, attr nfs3.SetAttr) (nfs3.FH, nfs3.Fattr, error) {
	t0 := o.begin()
	fh, a, err := o.Backend.Mkdir(dir, name, attr)
	o.end("MKDIR", t0)
	return fh, a, err
}

func (o *origin) Symlink(dir nfs3.FH, name, target string) (nfs3.FH, nfs3.Fattr, error) {
	t0 := o.begin()
	fh, a, err := o.Backend.Symlink(dir, name, target)
	o.end("SYMLINK", t0)
	return fh, a, err
}

func (o *origin) Remove(dir nfs3.FH, name string) error {
	t0 := o.begin()
	err := o.Backend.Remove(dir, name)
	o.end("REMOVE", t0)
	return err
}

func (o *origin) Rmdir(dir nfs3.FH, name string) error {
	t0 := o.begin()
	err := o.Backend.Rmdir(dir, name)
	o.end("RMDIR", t0)
	return err
}

func (o *origin) Rename(fromDir nfs3.FH, fromName string, toDir nfs3.FH, toName string) error {
	t0 := o.begin()
	err := o.Backend.Rename(fromDir, fromName, toDir, toName)
	o.end("RENAME", t0)
	return err
}

func (o *origin) ReadDir(dir nfs3.FH, cookie uint64, maxBytes uint32) ([]nfs3.DirEntry, bool, error) {
	t0 := o.begin()
	ents, eof, err := o.Backend.ReadDir(dir, cookie, maxBytes)
	o.end("READDIR", t0)
	return ents, eof, err
}

func (o *origin) FSStat(fh nfs3.FH) (nfs3.FSStatRes, error) {
	t0 := o.begin()
	r, err := o.Backend.FSStat(fh)
	o.end("FSSTAT", t0)
	return r, err
}

func (o *origin) Commit(fh nfs3.FH) error {
	t0 := o.begin()
	err := o.Backend.Commit(fh)
	o.end("COMMIT", t0)
	return err
}
