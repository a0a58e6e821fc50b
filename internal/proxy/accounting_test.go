package proxy_test

// Satellite coverage: degraded-mode transitions (internal/proxy/health.go)
// as seen through the accounting tables — a partition must show up in
// /statusz as degraded reads attributed to the right file and client —
// plus the write-back audit lifecycle across a middleware flush.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
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
