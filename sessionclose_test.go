package gvfs_test

import (
	"bytes"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/sunrpc"
)

// Regression tests for Session.Close: it used to tear down the RPC
// transport without settling files the application left open, while
// File.Close committed — so a session-level close could silently skip
// the commit that surfaces propagation failures.

func mountCloseTestSession(t *testing.T) (*gvfs.Session, *memfs.FS, *stack.Chain) {
	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS,
		Session: gvfs.SessionConfig{Cred: sunrpc.UnixCred{UID: 1, GID: 1, MachineName: "t"}.Encode()}})
	return c.Session(), c.FS, c
}

func TestSessionCloseCommitsOpenFiles(t *testing.T) {
	sess, fs, _ := mountCloseTestSession(t)
	payload := bytes.Repeat([]byte("dirty"), 2048)

	f, err := sess.Create("/left-open.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	// Deliberately no f.Close(): the session must settle it.
	if err := sess.Close(); err != nil {
		t.Fatalf("session close with open dirty file: %v", err)
	}
	// The commit happened exactly once; a late File.Close is a no-op.
	if err := f.Close(); err != nil {
		t.Errorf("file close after session close: %v", err)
	}
	got, err := fs.ReadFile("/left-open.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("server holds %d bytes, want %d", len(got), len(payload))
	}
}

func TestSessionCloseReportsCommitFailure(t *testing.T) {
	sess, _, c := mountCloseTestSession(t)

	f, err := sess.Create("/doomed.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("acknowledged"), 0); err != nil {
		t.Fatal(err)
	}
	// The server dies before the session settles: the close-time commit
	// cannot be acknowledged, and the session must say so rather than
	// report a clean teardown.
	c.StopOrigin()
	if err := sess.Close(); err == nil {
		t.Error("session close returned nil despite an unacknowledged commit")
	}
}

func TestSessionCloseAfterExplicitFileClose(t *testing.T) {
	sess, fs, _ := mountCloseTestSession(t)
	if err := sess.WriteFile("/plain.img", []byte("settled")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	if got, _ := fs.ReadFile("/plain.img"); string(got) != "settled" {
		t.Errorf("server holds %q", got)
	}
}
