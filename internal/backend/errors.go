package backend

import (
	"context"
	"errors"
	"fmt"
)

// Class partitions backend failures by how the proxy must react. The
// taxonomy replaces ad-hoc inspection of nfs3.Error / sunrpc.RPCError
// on the write-back and read-miss paths, so an objstore failure
// degrades exactly like the equivalent NFS failure.
type Class int

const (
	// ClassIO is a hard, server-reported error: the path to the
	// backend is alive but this operation failed (permission, I/O
	// error, invalid argument...). Not retriable, never trips the
	// circuit breaker.
	ClassIO Class = iota

	// ClassUnavailable is a transport-level failure — the backend
	// could not be reached or did not answer at the RPC level. Counts
	// toward opening the circuit breaker.
	ClassUnavailable

	// ClassTimeout is an exhausted per-call deadline. Deliberately
	// breaker-neutral: a caller-imposed budget expiring says nothing
	// definitive about backend health.
	ClassTimeout

	// ClassRetriable is a transient backend condition (NFS3ERR_JUKEBOX
	// and equivalents): retry later. Write-back keeps the block dirty
	// and the journal entry live.
	ClassRetriable

	// ClassStale means the file identifier no longer resolves
	// (NFS3ERR_STALE): cached state for the file should be dropped.
	ClassStale

	// ClassNotFound is a missing file or name (NFS3ERR_NOENT).
	ClassNotFound
)

var classNames = [...]string{ClassIO: "io", ClassUnavailable: "unavailable", ClassTimeout: "timeout",
	ClassRetriable: "retriable", ClassStale: "stale", ClassNotFound: "not-found"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// Error is the backend failure type. Status carries the NFS status the
// failure has, when it has one, so the proxy answers its client with the
// original code; zero means none. nfs3.Fail builds an Error from a
// status, and nfs3.StatusOf reads one.
type Error struct {
	Class  Class
	Op     string
	Status uint32
	Err    error
}

func (e *Error) Error() string {
	s := fmt.Sprintf("backend: %s: %s", e.Op, e.Class)
	if e.Status != 0 {
		s += fmt.Sprintf(" (status %d)", e.Status)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *Error) Unwrap() error { return e.Err }

// Classify maps any error to the Class the proxy should act on.
// Unknown errors default to ClassUnavailable — an unclassifiable
// failure from the upstream path is treated as transport trouble,
// matching the pre-refactor breaker semantics.
func Classify(err error) Class {
	var be *Error
	if errors.As(err, &be) {
		return be.Class
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	return ClassUnavailable
}
