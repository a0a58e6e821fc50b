package gvfs_test

// Kill-9 end-to-end tests of the crash-consistent write-back path:
// run a real nfsd and a real gvfsproxy with the fault-injection
// harness armed ($GVFS_CRASHPOINT), SIGKILL the proxy at each point in the
// journal/bank/commit ordering, restart it over the same cache
// directory, and check the paper-level guarantees:
//
//   - no acknowledged write is ever lost,
//   - no block is ever torn (every block is either its old or its new
//     content in full),
//   - a write journaled durably before the crash survives even if it
//     was never acknowledged,
//   - replay never resurrects stale data over a newer acknowledged
//     write.

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

const e2eBlock = 4096

// crashClient opens a raw NFS connection to the proxy. No redial
// options: when the proxy process dies, in-flight calls fail fast
// instead of retransmitting.
func crashClient(t *testing.T, addr string) (*nfs3.Client, nfs3.FH, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rpc := sunrpc.NewClient(conn)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "crash-e2e"}.Encode()
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		rpc.Close()
		t.Fatal(err)
	}
	return nfs3.NewClient(rpc, cred), root, func() { rpc.Close() }
}

// waitExit waits for a daemon the test expects to die on its own.
func waitExit(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not crash at the armed crashpoint")
	}
}

// startCrashProxy launches gvfsproxy over cacheDir with the given
// crashpoint armed through GVFS_CRASHPOINT ("" = disarmed). Journaling is
// the daemon's only write-back behaviour, so no flag asks for it.
func startCrashProxy(t *testing.T, binDir, upstream, cacheDir, crashpoint string) (*exec.Cmd, string) {
	t.Helper()
	addr := freePort(t)
	cmd := startDaemonEnv(t, []string{"GVFS_CRASHPOINT=" + crashpoint}, filepath.Join(binDir, "gvfsproxy"),
		"-listen", addr, "-upstream", upstream,
		"-cache-dir", cacheDir, "-cache-banks", "2", "-cache-sets", "8",
		"-cache-assoc", "4", "-cache-block", "4096",
		"-policy", "write-back", "-journal-sync", "batch", "-log-level", "warn")
	waitListening(t, addr)
	return cmd, addr
}

func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("crash e2e skipped in -short mode")
	}
	binDir := buildTools(t)
	exportDir := t.TempDir()
	nfsdAddr := freePort(t)
	startDaemon(t, filepath.Join(binDir, "nfsd"),
		"-listen", nfsdAddr, "-root", exportDir, "-export", "/")
	waitListening(t, nfsdAddr)

	scenarios := []struct {
		name       string
		crashpoint string
		// onWriteBack: the crashpoint fires during write-back (arm it,
		// ack all writes, then SIGUSR1). Otherwise it fires on the
		// first dirty put, killing the proxy mid-WRITE.
		onWriteBack bool
		// journaled: the crashing write's record is durable before the
		// kill, so recovery MUST deliver it even though the client
		// never saw an ack.
		journaled bool
	}{
		{name: "pre-journal-sync", crashpoint: "pre-journal-sync"},
		{name: "post-journal-pre-bank", crashpoint: "post-journal-pre-bank", journaled: true},
		{name: "mid-bank-write", crashpoint: "mid-bank-write", journaled: true},
		{name: "pre-commit", crashpoint: "pre-commit", onWriteBack: true, journaled: true},
		{name: "post-commit-pre-truncate", crashpoint: "post-commit-pre-truncate", onWriteBack: true, journaled: true},
	}
	for si, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			imgName := "disk" + string(rune('a'+si)) + ".img"
			initial := bytes.Repeat([]byte{0x11}, 8*e2eBlock)
			if err := os.WriteFile(filepath.Join(exportDir, imgName), initial, 0644); err != nil {
				t.Fatal(err)
			}
			cacheDir := t.TempDir()
			proxy1, addr1 := startCrashProxy(t, binDir, nfsdAddr, cacheDir, sc.crashpoint)

			nc, root, closeC := crashClient(t, addr1)
			defer closeC()
			fh, _, err := nc.Lookup(root, imgName)
			if err != nil {
				t.Fatal(err)
			}

			attempted := map[uint64][]byte{}
			acked := map[uint64]bool{}
			if sc.onWriteBack {
				// All writes land and ack; the crash fires later, inside
				// the signal-driven write-back.
				for i := uint64(0); i < 4; i++ {
					data := bytes.Repeat([]byte{byte(0xC0 + i)}, e2eBlock)
					if _, _, err := nc.Write(fh, i*e2eBlock, data, nfs3.Unstable); err != nil {
						t.Fatalf("write %d: %v", i, err)
					}
					attempted[i], acked[i] = data, true
				}
				proxy1.Process.Signal(syscall.SIGUSR1)
			} else {
				// The first dirty put trips the crashpoint: the proxy is
				// SIGKILLed mid-WRITE and the call fails unacknowledged.
				data := bytes.Repeat([]byte{0xC0}, e2eBlock)
				attempted[0] = data
				if _, _, err := nc.Write(fh, 0, data, nfs3.Unstable); err == nil {
					t.Fatalf("crashpoint %s did not kill the write", sc.crashpoint)
				}
			}
			waitExit(t, proxy1)

			// Restart over the same cache directory, disarmed. Recovery
			// and replay run before the listener opens, so once the
			// proxy accepts connections the server state is final.
			_, addr2 := startCrashProxy(t, binDir, nfsdAddr, cacheDir, "")
			post, err := os.ReadFile(filepath.Join(exportDir, imgName))
			if err != nil {
				t.Fatal(err)
			}
			for blk := uint64(0); blk < 8; blk++ {
				got := post[blk*e2eBlock : (blk+1)*e2eBlock]
				want, wrote := attempted[blk]
				switch {
				case !wrote:
					if !bytes.Equal(got, initial[:e2eBlock]) {
						t.Errorf("untouched block %d changed", blk)
					}
				case acked[blk] || sc.journaled:
					// Acked or durably journaled: must survive.
					if !bytes.Equal(got, want) {
						t.Errorf("block %d lost after crash at %s", blk, sc.crashpoint)
					}
				default:
					// Unacked, pre-durability: either version is legal,
					// a torn mix of the two is not.
					if !bytes.Equal(got, want) && !bytes.Equal(got, initial[:e2eBlock]) {
						t.Errorf("block %d torn after crash at %s", blk, sc.crashpoint)
					}
				}
			}
			// The recovered proxy serves the recovered bytes.
			nc2, root2, closeC2 := crashClient(t, addr2)
			defer closeC2()
			fh2, _, err := nc2.Lookup(root2, imgName)
			if err != nil {
				t.Fatal(err)
			}
			for blk, want := range attempted {
				if !acked[blk] && !sc.journaled {
					continue
				}
				got, _, err := nc2.Read(fh2, blk*e2eBlock, e2eBlock)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("block %d wrong through recovered proxy: %v", blk, err)
				}
			}
		})
	}
}

func TestCrashRecoveryNoStaleResurrection(t *testing.T) {
	// v1 is written back and committed; v2 is acknowledged and then the
	// proxy is SIGKILLed. Replay must converge the server on v2 — the
	// committed v1 records may never win over the newer journal data.
	if testing.Short() {
		t.Skip("crash e2e skipped in -short mode")
	}
	binDir := buildTools(t)
	exportDir := t.TempDir()
	initial := bytes.Repeat([]byte{0x11}, 8*e2eBlock)
	if err := os.WriteFile(filepath.Join(exportDir, "disk.img"), initial, 0644); err != nil {
		t.Fatal(err)
	}
	nfsdAddr := freePort(t)
	startDaemon(t, filepath.Join(binDir, "nfsd"),
		"-listen", nfsdAddr, "-root", exportDir, "-export", "/")
	waitListening(t, nfsdAddr)

	cacheDir := t.TempDir()
	proxy1, addr1 := startCrashProxy(t, binDir, nfsdAddr, cacheDir, "")
	nc, root, closeC := crashClient(t, addr1)
	defer closeC()
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{0xAA}, e2eBlock)
	for i := uint64(0); i < 4; i++ {
		if _, _, err := nc.Write(fh, i*e2eBlock, v1, nfs3.Unstable); err != nil {
			t.Fatalf("v1 write %d: %v", i, err)
		}
	}
	// Session boundary: push v1 to the server and wait for it to land.
	proxy1.Process.Signal(syscall.SIGUSR1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		blob, _ := os.ReadFile(filepath.Join(exportDir, "disk.img"))
		if len(blob) >= e2eBlock && bytes.Equal(blob[:e2eBlock], v1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("v1 never reached the server")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// v2 is acknowledged, then the proxy dies hard.
	v2 := bytes.Repeat([]byte{0xBB}, e2eBlock)
	for i := uint64(0); i < 4; i++ {
		if _, _, err := nc.Write(fh, i*e2eBlock, v2, nfs3.Unstable); err != nil {
			t.Fatalf("v2 write %d: %v", i, err)
		}
	}
	proxy1.Process.Kill()
	proxy1.Wait()

	startCrashProxy(t, binDir, nfsdAddr, cacheDir, "")
	post, err := os.ReadFile(filepath.Join(exportDir, "disk.img"))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if !bytes.Equal(post[i*e2eBlock:(i+1)*e2eBlock], v2) {
			t.Errorf("block %d: stale v1 resurfaced (or v2 lost) after replay", i)
		}
	}
}
