package proxy_test

// Satellite coverage: degraded-mode transitions (internal/proxy/health.go)
// as seen through the accounting tables — a partition must show up in
// /statusz as degraded reads attributed to the right file and client —
// the write-back audit lifecycle across a middleware flush, and a
// file-cache READ that fails accounted as the failure it is.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/obs"
	"gvfs/internal/proxy"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

func TestDegradedReadsAttributedInStatusz(t *testing.T) {
	fs := memfs.New()
	img := chaosPattern(64*1024, 9)
	fs.WriteFile("/img", img)
	wan := simnet.NewLink(simnet.Local())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr:        server.ProxyAddr(),
		UpstreamLink:        wan,
		CacheConfig:         &cfg,
		UpstreamCallTimeout: 150 * time.Millisecond,
		UpstreamMaxRetries:  2,
		FailureThreshold:    1,
		ProbeInterval:       time.Hour, // keep the breaker open for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr: node.Addr, Export: "/",
		Cred: sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })

	// Warm the block cache, then partition the WAN.
	if got, err := sess.ReadFile("/img"); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("warm read: %v", err)
	}
	before := node.Proxy.Statusz()
	wan.Partition()
	wan.Drop()
	sess.DropCaches()
	// The read below is answered from the attribute table and the block
	// cache alone (so is a LOOKUP of a name the listed root lacks); what
	// opens the breaker is a call that needs the upstream.
	if err := sess.WriteFile("/uncached", []byte("x")); err == nil {
		t.Fatal("CREATE succeeded during the partition")
	}

	// Degraded read: served from cache while the breaker is open.
	if got, err := sess.ReadFile("/img"); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("degraded read: %v", err)
	}
	if !node.Proxy.Degraded() {
		t.Fatal("proxy not degraded after partition")
	}

	st := node.Proxy.Statusz()
	if !st.Degraded {
		t.Error("statusz does not report degraded mode")
	}
	var row *proxy.FileStats
	for i := range st.Files["reads"] {
		if st.Files["reads"][i].File == "/img" {
			row = &st.Files["reads"][i]
		}
	}
	if row == nil {
		t.Fatalf("no /img row in reads ranking: %+v", st.Files["reads"])
	}
	if row.DegradedReads == 0 {
		t.Errorf("degraded reads not attributed to /img: %+v", row)
	}
	found := false
	for _, c := range st.Clients {
		if strings.HasPrefix(c.Client, "compute1/uid=500") {
			found = true
			if c.DegradedReads == 0 {
				t.Errorf("degraded reads not attributed to client: %+v", c)
			}
			if c.Ops["READ"] == 0 {
				t.Errorf("client op mix missing READs: %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("client compute1/uid=500 absent from statusz: %+v", st.Clients)
	}
	if before.Degraded {
		t.Error("statusz reported degraded before the partition")
	}

	// The document itself must be bounded, valid JSON.
	var buf bytes.Buffer
	if err := node.Proxy.WriteStatusz(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintBoundedJSON(buf.Bytes(), 4096); err != nil {
		t.Fatalf("statusz fails bounded-JSON lint: %v", err)
	}
}

func TestWriteBackAuditAcrossFlush(t *testing.T) {
	fs := memfs.New()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(), CacheConfig: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })

	payload := chaosPattern(32*1024, 10)
	if err := sess.WriteFile("/disk", payload); err != nil {
		t.Fatal(err)
	}
	st := node.Proxy.Statusz()
	if st.Audit.DirtyBlocks == 0 {
		t.Fatal("no dirty blocks in audit after absorbed writes")
	}
	dirtyEvents := 0
	for _, e := range st.Audit.Events {
		if e.Kind == proxy.AuditDirty && e.File == "/disk" {
			dirtyEvents++
		}
	}
	if dirtyEvents == 0 {
		t.Fatalf("no dirty audit events for /disk: %+v", st.Audit.Events)
	}

	if err := node.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	st = node.Proxy.Statusz()
	if st.Audit.DirtyBlocks != 0 {
		t.Errorf("dirty blocks remain in audit after write-back: %d", st.Audit.DirtyBlocks)
	}
	var sawTrigger, sawCommit bool
	for _, e := range st.Audit.Events {
		switch e.Kind {
		case proxy.AuditTrigger:
			if e.Reason == proxy.TriggerWriteBack {
				sawTrigger = true
			}
		case proxy.AuditCommit:
			sawCommit = true
			if e.AgeNs <= 0 {
				t.Errorf("commit event without a dirty-block age: %+v", e)
			}
		}
	}
	if !sawTrigger || !sawCommit {
		t.Fatalf("audit lifecycle incomplete (trigger=%v commit=%v): %+v",
			sawTrigger, sawCommit, st.Audit.Events)
	}
}

// TestFileCacheReadErrorAccounting: a READ of a file fetched whole whose
// local copy the file cache can no longer read fails with NFS3ERR_IO, and
// is accounted as a failed READ — outcome error, a file_cache/error span
// — not as a file-cache hit.
func TestFileCacheReadErrorAccounting(t *testing.T) {
	const bs = 8192
	fs := memfs.New()
	state := chaosPattern(4*bs, 11)
	fs.WriteFile("/vm/mem.vmss", state)
	blob, err := meta.ForWholeFile(state, bs).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	fileCache := t.TempDir()
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		CacheConfig: &cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
			BlockSize: bs, Policy: cache.WriteBack},
		FileCacheDir: fileCache,
		FileChanAddr: server.FileChanAddr(),
		TraceRing:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if got, err := sess.ReadFile("/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("read through the file cache: %v", err)
	}

	type tally struct{ fileCache, failed, hits, hitSpans, errorSpans uint64 }
	count := func() (n tally) {
		snap := node.Proxy.Snapshot()
		n.fileCache = snap.Histograms[`gvfs_proxy_read_duration_seconds{outcome="file_cache"}`].Count
		n.failed = snap.Histograms[`gvfs_proxy_read_duration_seconds{outcome="error"}`].Count
		for _, row := range node.Proxy.Statusz().Files["reads"] {
			if row.File == "/vm/mem.vmss" {
				n.hits = row.FileCacheHits
			}
		}
		for _, tr := range node.Tracer.Traces() {
			for _, sp := range tr.Spans {
				if sp.Layer == obs.LayerFileCache && sp.Outcome == "hit" {
					n.hitSpans++
				} else if sp.Layer == obs.LayerFileCache && sp.Outcome == "error" {
					n.errorSpans++
				}
			}
		}
		return n
	}
	before := count()
	if before.fileCache == 0 || before.hits == 0 || before.hitSpans == 0 {
		t.Fatalf("the file cache answered nothing: %+v", before)
	}
	// Take the local copy away from under the cache's entry.
	files, err := os.ReadDir(fileCache)
	if err != nil || len(files) == 0 {
		t.Fatalf("no file in the file cache (%v)", err)
	}
	for _, f := range files {
		if err := os.Remove(filepath.Join(fileCache, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	sess.DropCaches()
	if _, err := sess.ReadFile("/vm/mem.vmss"); err == nil {
		t.Fatal("a READ the file cache cannot answer succeeded")
	}
	after := count()
	if after.failed == before.failed || after.errorSpans == before.errorSpans {
		t.Errorf("the failed READ is not accounted as an error: before %+v, after %+v", before, after)
	}
	if after.fileCache != before.fileCache || after.hits != before.hits || after.hitSpans != before.hitSpans {
		t.Errorf("the failed READ is accounted as a file-cache hit: before %+v, after %+v", before, after)
	}
}
