package gvfs_test

// End-to-end test of the standalone daemons: build nfsd, gvfsd,
// gvfsproxy and vmclone, run them as real processes against a real
// directory, and clone a VM through the full chain — the deployment a
// downstream user would actually operate.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
	"gvfs/internal/vm"
)

// buildTools compiles the daemons once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	binDir := t.TempDir()
	for _, tool := range []string{"nfsd", "gvfsd", "gvfsproxy", "vmclone"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return binDir
}

// freePort reserves a loopback port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches a binary and kills it at cleanup.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	return startDaemonEnv(t, nil, bin, args...)
}

// startDaemonEnv is startDaemon with env added to the test's environment.
func startDaemonEnv(t *testing.T, env []string, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}

func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon test skipped in -short mode")
	}
	binDir := buildTools(t)

	// Image server directory with a golden VM image, written through
	// memfs generation for identical content.
	exportDir := t.TempDir()
	mem := memfs.New()
	spec := vm.Spec{Name: "rh73", MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: 11}
	if err := vm.InstallImage(mem, "/images/golden", spec); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"rh73.vmx", "rh73.vmss", "rh73.vmdk", ".gvfsmeta.rh73.vmss"} {
		data, err := mem.ReadFile("/images/golden/" + f)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(exportDir, "images", "golden")
		if err := os.MkdirAll(dir, 0755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0644); err != nil {
			t.Fatal(err)
		}
	}

	nfsdAddr := freePort(t)
	gvfsdAddr := freePort(t)
	filechanAddr := freePort(t)
	proxyAddr := freePort(t)
	metricsAddr := freePort(t)
	keyFile := filepath.Join(t.TempDir(), "session.key")

	// Generate a session key.
	genkey := exec.Command(filepath.Join(binDir, "gvfsd"), "-genkey", "-keyfile", keyFile)
	if out, err := genkey.CombinedOutput(); err != nil {
		t.Fatalf("genkey: %v\n%s", err, out)
	}

	startDaemon(t, filepath.Join(binDir, "nfsd"),
		"-listen", nfsdAddr, "-root", exportDir, "-export", "/")
	waitListening(t, nfsdAddr)

	startDaemon(t, filepath.Join(binDir, "gvfsd"),
		"-listen", gvfsdAddr, "-upstream", nfsdAddr,
		"-filechan-listen", filechanAddr, "-root", exportDir,
		"-keyfile", keyFile)
	waitListening(t, gvfsdAddr)
	waitListening(t, filechanAddr)

	cacheDir := t.TempDir()
	proxyCmd := startDaemon(t, filepath.Join(binDir, "gvfsproxy"),
		"-listen", proxyAddr, "-upstream", gvfsdAddr,
		"-cache-dir", cacheDir, "-cache-banks", "8", "-cache-sets", "8",
		"-filechan", filechanAddr,
		"-keyfile", keyFile, "-readahead", "4",
		"-metrics", metricsAddr, "-trace-ring", "256",
		"-flightrec", "64", "-slow-threshold", "50ms", "-log-level", "debug")
	waitListening(t, proxyAddr)
	waitListening(t, metricsAddr)

	// Clone through the running chain with the vmclone tool.
	cloneCmd := exec.Command(filepath.Join(binDir, "vmclone"),
		"-proxy", proxyAddr, "-golden", "/images/golden", "-name", "rh73",
		"-clone-dir", "/clones/c1", "-user", "alice")
	out, err := cloneCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("vmclone: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("cloned /images/golden")) {
		t.Errorf("vmclone output: %s", out)
	}

	// The clone's config contents sit in the proxy's write-back cache
	// until the middleware triggers propagation; SIGUSR1 forces it out.
	cfgPath := filepath.Join(exportDir, "clones", "c1", "rh73.vmx")
	proxyCmd.Process.Signal(syscall.SIGUSR1)
	deadline := time.Now().Add(10 * time.Second)
	var cfg []byte
	for time.Now().Before(deadline) {
		cfg, _ = os.ReadFile(cfgPath)
		if bytes.Contains(cfg, []byte("alice")) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !bytes.Contains(cfg, []byte("alice")) {
		t.Errorf("clone config never reached the image server customized:\n%s", cfg)
	}

	// A library session through the same daemons sees the clone.
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:   proxyAddr,
		Export: "/",
		Cred:   sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "e2e"}.Encode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	entries, err := sess.ReadDir("/clones/c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Errorf("clone dir entries = %d, want config + disk link", len(entries))
	}
	fmt.Fprintf(os.Stderr, "daemons e2e: clone dir has %d entries\n", len(entries))

	// The live proxy's observability endpoint: /metrics must pass the
	// exposition linter and carry the per-procedure histograms the
	// workload above populated; /traces serves the request ring.
	scrape := func(path string) string {
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	metrics := scrape("/metrics")
	if err := obs.Lint([]byte(metrics)); err != nil {
		t.Errorf("live /metrics failed lint: %v", err)
	}
	for _, want := range []string{
		`gvfs_proxy_rpc_duration_seconds_bucket{proc="READ"`,
		"gvfs_proxy_calls_total",
		"gvfs_blockcache_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("live /metrics missing %s", want)
		}
	}
	if traces := scrape("/traces"); !strings.Contains(traces, `"spans"`) {
		t.Errorf("live /traces has no spans: %.200s", traces)
	}

	// /statusz carries the per-file/per-client accounting document; the
	// workload above read and wrote through the chain, so the tables
	// must be populated and bounded.
	statusz := scrape("/statusz")
	if err := obs.LintBoundedJSON([]byte(statusz), 4096); err != nil {
		t.Errorf("live /statusz failed lint: %v", err)
	}
	for _, want := range []string{`"files"`, `"clients"`, `"writeback_audit"`} {
		if !strings.Contains(statusz, want) {
			t.Errorf("live /statusz missing %s section: %.300s", want, statusz)
		}
	}

	// /logz serves the structured-log ring; startup alone writes the
	// "proxy up" event, and the lint enforces the bounded-document shape.
	logz := scrape("/logz")
	if err := obs.LintLogz([]byte(logz)); err != nil {
		t.Errorf("live /logz failed lint: %v", err)
	}
	if !strings.Contains(logz, "proxy up") {
		t.Errorf("live /logz missing startup event: %.300s", logz)
	}

	// /flightrec serves the retained slow/error recordings document even
	// when nothing has been promoted.
	if fr := scrape("/flightrec"); !strings.Contains(fr, `"total_recorded"`) {
		t.Errorf("live /flightrec malformed: %.200s", fr)
	}
}
