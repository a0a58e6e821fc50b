package nfs3

import (
	"errors"
	"io/fs"
	"syscall"

	"gvfs/internal/backend"
)

// Error is an NFSv3 protocol error carrying a Status. Backends return
// *Error, wrapped or not, to select the status reported to clients.
type Error struct {
	Status Status
	Op     string
}

func (e *Error) Error() string {
	if e.Op != "" {
		return "nfs3: " + e.Op + ": " + e.Status.String()
	}
	return "nfs3: " + e.Status.String()
}

// StatusOf is the one reader of the status a client sees for err (OK for
// nil): that of an *Error or a *backend.Error however deeply wrapped,
// else the one an OS error in err's chain names, else NFS3ERR_IO. A
// *backend.Error without a status reads by its class (classStatuses). A
// transport-class one (ClassUnavailable, ClassTimeout) has no status a
// client could take as the file's state, so whoever answers a client for
// a backend (nfs3be.Serve, the proxy) answers it with RPC SYSTEM_ERR.
func StatusOf(err error) Status {
	if err == nil {
		return OK
	}
	if e := (*Error)(nil); errors.As(err, &e) {
		return e.Status
	}
	if be := (*backend.Error)(nil); errors.As(err, &be) {
		if be.Status != 0 {
			return Status(be.Status)
		}
		for _, m := range classStatuses {
			if m.class == be.Class {
				return m.st
			}
		}
		return ErrIO
	}
	if st, ok := osStatus(err); ok {
		return st
	}
	return ErrIO
}

// Fail is op's failure with status st as the one value a backend returns
// for it: a *backend.Error carrying st and, for its message, cause. Its
// class is st's in classStatuses, else ClassIO: a server that answered.
// With st 0 the status is the one cause's OS error names; a cause that
// names none is a failure with no status, ClassUnavailable.
func Fail(op string, st Status, cause error) error {
	if st == 0 {
		var ok bool
		if st, ok = osStatus(cause); !ok {
			return &backend.Error{Class: backend.ClassUnavailable, Op: op, Err: cause}
		}
	}
	class := backend.ClassIO
	for _, m := range classStatuses {
		if m.st == st {
			class = m.class
		}
	}
	return &backend.Error{Class: class, Op: op, Status: uint32(st), Err: cause}
}

// classStatuses pairs each class that has a status of its own with it,
// the one table between the two, read both ways: BADHANDLE is a stale
// handle too, and a stale one without a status reads as STALE.
var classStatuses = [...]struct {
	class backend.Class
	st    Status
}{{backend.ClassRetriable, ErrJukebox}, {backend.ClassStale, ErrStale},
	{backend.ClassNotFound, ErrNoEnt}, {backend.ClassStale, ErrBadHandle}}

// osStatuses maps OS errors to statuses, first match wins: ENOTEMPTY is
// also fs.ErrExist, and EACCES and EPERM are fs.ErrPermission.
var osStatuses = [...]struct {
	err error
	st  Status
}{{syscall.ENOTEMPTY, ErrNotEmpty}, {syscall.EISDIR, ErrIsDir}, {syscall.ENOTDIR, ErrNotDir},
	{fs.ErrNotExist, ErrNoEnt}, {fs.ErrExist, ErrExist}, {fs.ErrPermission, ErrAcces},
	{syscall.ENOSPC, ErrNoSpc}, {syscall.EDQUOT, ErrNoSpc}, {syscall.EROFS, ErrRoFS}, {syscall.EIO, ErrIO}}

// osStatus is the status the first OS error of osStatuses in err's chain
// names.
func osStatus(err error) (Status, bool) {
	for _, m := range osStatuses {
		if errors.Is(err, m.err) {
			return m.st, true
		}
	}
	return 0, false
}
