package proxy_test

// Chaos suite: a session mounted through a two-level proxy chain over
// simnet, with faults injected mid-read, mid-write and mid-flush. The
// invariants under test are the robustness contract of the RPC
// substrate and the proxy breaker: no hangs, no lost acknowledged
// writes, bounded error latency, and correct data after recovery.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/bubble"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/qos"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
	"gvfs/internal/sunrpc"
)

// chaosPattern builds deterministic, position-dependent content so a
// misplaced or stale block shows up as a comparison failure.
func chaosPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+13) ^ byte(i>>8) ^ seed
	}
	return b
}

func TestChaosLossAndFlapWholeFileRead(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		fs := memfs.New()
		img := chaosPattern(256*1024, 1)
		fs.WriteFile("/img", img)
		wan := simnet.NewLink(simnet.Local())
		c := stacktest.New(t, wbHop(fs, wan, stack.ProxyOptions{
			UpstreamCallTimeout: 250 * time.Millisecond,
			UpstreamMaxRetries:  8,
		}))
		node, sess := c.Hop(), c.Session()

		// Seeded 5% message loss on the WAN for the whole transfer, plus
		// one connection kill mid-read.
		wan.SetLoss(0.05, 42)
		type result struct {
			data []byte
			err  error
		}
		done := make(chan result, 1)
		go func() {
			data, err := sess.ReadFile("/img")
			done <- result{data, err}
		}()
		time.Sleep(100 * time.Millisecond)
		wan.Flap(1, 5*time.Millisecond)

		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("read under loss+flap: %v", r.err)
			}
			if !bytes.Equal(r.data, img) {
				t.Fatalf("read returned %d bytes, corrupt or truncated (want %d)",
					len(r.data), len(img))
			}
		case <-time.After(60 * time.Second):
			t.Fatal("whole-file read hung under loss + flap")
		}
		if n := node.Proxy.Snapshot().Counter("gvfs_rpc_reconnects_total"); n == 0 {
			t.Error("want at least one reconnect after the flap")
		}
		if wan.DroppedMessages() == 0 {
			t.Error("loss injection dropped nothing — test exercised no faults")
		}
	})
}

func TestChaosPartitionDegradedModeAndReplay(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		fs := memfs.New()
		img := chaosPattern(64*1024, 2)
		fs.WriteFile("/img", img)
		fs.WriteFile("/cold/other", nil) // a directory the proxy never lists
		wan := simnet.NewLink(simnet.Local())
		c := stacktest.New(t, wbHop(fs, wan, stack.ProxyOptions{
			UpstreamCallTimeout: 150 * time.Millisecond,
			UpstreamMaxRetries:  2,
			FailureThreshold:    1,
			ProbeInterval:       50 * time.Millisecond,
		}))
		node, sess := c.Hop(), c.Session()

		// Warm the cache and absorb a write while the WAN is healthy.
		if got, err := sess.ReadFile("/img"); err != nil || !bytes.Equal(got, img) {
			t.Fatalf("warm read: %v", err)
		}
		part1 := chaosPattern(16*1024, 3)
		if err := sess.WriteFile("/out", part1); err != nil {
			t.Fatal(err)
		}
		if node.BlockCache.DirtyCount() == 0 {
			t.Fatal("write not absorbed into the write-back cache")
		}

		// Partition the WAN: established connections die, new dials fail.
		wan.Partition()
		wan.Drop()
		sess.DropCaches() // force name resolution back through the proxy
		// The warm session below needs nothing of the upstream (the attribute
		// table and the block cache answer it all), so none of its calls fails
		// and trips the breaker: a call for a name in a directory the proxy has
		// not listed does (a name the listing of / lacks is NOENT locally).
		if _, err := sess.ReadFile("/cold/unseen"); err == nil {
			t.Fatal("read of an unseen file succeeded during partition")
		}

		// Cached data stays readable (degraded read-only mode), including
		// LOOKUP/GETATTR from the proxy's attribute table.
		if got, err := sess.ReadFile("/img"); err != nil || !bytes.Equal(got, img) {
			t.Fatalf("degraded read of cached file: %v", err)
		}
		if !node.Proxy.Degraded() {
			t.Error("proxy not in degraded mode during partition")
		}

		// Writes against absorbed state keep being acknowledged.
		f, err := sess.Open("/out")
		if err != nil {
			t.Fatalf("degraded open: %v", err)
		}
		part2 := chaosPattern(16*1024, 4)
		if _, err := f.WriteAt(part2, int64(len(part1))); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("degraded close: %v", err)
		}

		// Uncached access fails fast: bounded error latency, never a hang.
		start := time.Now()
		if _, err := sess.ReadFile("/cold/nope"); err == nil {
			t.Error("read of unknown file succeeded during partition")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("degraded error took %v, want fast failure", d)
		}
		st := node.Proxy.Snapshot()
		if st.Counter("gvfs_proxy_breaker_opens_total") == 0 {
			t.Error("circuit breaker never opened")
		}
		if st.Counter("gvfs_proxy_breaker_fastfails_total") == 0 {
			t.Error("no fast-fails recorded while partitioned")
		}
		if st.Counter("gvfs_proxy_degraded_reads_total") == 0 {
			t.Error("no degraded reads recorded")
		}

		// Heal: probes must close the breaker and replay every acknowledged
		// write; the origin must converge to the exact session content.
		wan.Heal()
		want := append(append([]byte{}, part1...), part2...)
		wantSum := sha256.Sum256(want)
		deadline := time.Now().Add(15 * time.Second)
		for {
			if got, err := fs.ReadFile("/out"); err == nil && sha256.Sum256(got) == wantSum {
				break
			}
			if time.Now().After(deadline) {
				got, _ := fs.ReadFile("/out")
				t.Fatalf("acknowledged writes not replayed within 15s (origin has %d bytes, want %d)",
					len(got), len(want))
			}
			time.Sleep(100 * time.Millisecond)
		}
		if node.Proxy.Degraded() {
			t.Error("proxy still degraded after heal + probe")
		}
		st = node.Proxy.Snapshot()
		if st.Counter("gvfs_proxy_probes_total") == 0 || st.Counter("gvfs_proxy_replays_total") == 0 {
			t.Error("recovery stats: want probes and replays > 0")
		}
	})
}

func TestChaosStallMidReadRecovers(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		fs := memfs.New()
		img := chaosPattern(128*1024, 5)
		fs.WriteFile("/img", img)
		wan := simnet.NewLink(simnet.Local())
		c := stacktest.New(t, wbHop(fs, wan, stack.ProxyOptions{
			UpstreamCallTimeout: 150 * time.Millisecond,
			UpstreamMaxRetries:  8,
		}))
		sess := c.Session()

		// Freeze the WAN, then start the read so its first RPCs are caught
		// by the stall: they must ride timeouts and retransmission instead
		// of hanging, and complete once the link thaws.
		const stall = 400 * time.Millisecond
		wan.Stall(stall)
		start := time.Now()
		done := make(chan struct{})
		var data []byte
		var rerr error
		go func() {
			data, rerr = sess.ReadFile("/img")
			close(done)
		}()

		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("read hung across a WAN stall")
		}
		if rerr != nil {
			t.Fatalf("read across stall: %v", rerr)
		}
		if !bytes.Equal(data, img) {
			t.Fatal("read across stall returned wrong content")
		}
		if d := time.Since(start); d < stall-50*time.Millisecond {
			t.Errorf("read finished in %v — the %v stall never took effect", d, stall)
		}
	})
}

// TestChaosOverloadStallWithAggressiveTenant combines two faults: a
// WAN stall and a noisy tenant flooding the proxy with cold misses
// from many connections at once. With admission control on, the
// invariants are: the proxy never deadlocks, overflow is shed with
// the retriable NFS3ERR_JUKEBOX instead of unbounded queueing, the
// polite tenant's requests stay bounded, brownout trips under the
// sustained queue delay, and the acknowledged write survives to the
// origin once the storm passes.
func TestChaosOverloadStallWithAggressiveTenant(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		fs := memfs.New()
		big := chaosPattern(2*1024*1024, 7) // larger than the block cache
		fs.WriteFile("/big", big)
		hot := chaosPattern(32*1024, 8)
		fs.WriteFile("/hot", hot)
		wan := simnet.NewLink(simnet.Local())
		c := stacktest.New(t, wbHop(fs, wan, stack.ProxyOptions{
			UpstreamCallTimeout: 150 * time.Millisecond,
			UpstreamMaxRetries:  2,
			QoS: &qos.Config{
				MaxConcurrent:  4,
				PerClientQueue: 8,
				BrownoutEnter:  10 * time.Millisecond,
			},
		}))
		node, sess := c.Hop(), c.Session()

		// Warm the polite tenant's working set and absorb one acknowledged
		// write while the WAN is healthy.
		if got, err := sess.ReadFile("/hot"); err != nil || !bytes.Equal(got, hot) {
			t.Fatalf("warm read: %v", err)
		}
		payload := chaosPattern(48*1024, 9)
		if err := sess.WriteFile("/ack", payload); err != nil {
			t.Fatal(err)
		}
		if node.BlockCache.DirtyCount() == 0 {
			t.Fatal("write not absorbed into the write-back cache")
		}

		// The aggressor: 16 connections sharing one credential (one
		// tenant), each hammering cold reads of the big file in a closed
		// loop. Shed replies and transport errors during the stall are
		// expected; hangs are not. Its connections cross a 2 ms round
		// trip to the proxy, so even a shed or a hit costs it time: in
		// virtual time the clock moves while it hammers.
		aggCred := sunrpc.UnixCred{UID: 666, GID: 666, MachineName: "noisy"}.Encode()
		lan := simnet.NewLink(simnet.Profile{Name: "LAN", RTT: 2 * time.Millisecond})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var aggShed, aggServed atomic.Int64
		// Mount every aggressor connection before the storm starts: MOUNT
		// has no retriable shed encoding, so a mount racing the tenant's
		// own full queue would fail outright.
		files := make([]*gvfs.File, 16)
		for i := range files {
			var err error
			files[i], err = stacktest.Mount(t, c, gvfs.SessionConfig{Cred: aggCred,
				Dial: stack.Dialer(c.Hop().Addr, lan, nil)}).Open("/big")
			if err != nil {
				t.Fatalf("aggressor open: %v", err)
			}
		}
		for i := range files {
			f := files[i]
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				buf := make([]byte, 8192)
				off := int64(id) * 8192
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, err := f.ReadAt(buf, off%int64(len(big)-8192))
					switch {
					case err == nil:
						aggServed.Add(1)
					case isJukeboxErr(err):
						aggShed.Add(1)
					}
					off += 37 * 8192 // stride to defeat read-ahead
				}
			}(i)
		}

		// Let the storm establish, then freeze the WAN under it.
		time.Sleep(200 * time.Millisecond)
		wan.Stall(600 * time.Millisecond)

		// The polite tenant keeps issuing reads of its warmed file through
		// the storm. Individual requests may fail transiently while the
		// WAN is frozen; none may hang, and successes must be correct.
		politeDeadline := time.Now().Add(1500 * time.Millisecond)
		var politeOK int
		for time.Now().Before(politeDeadline) {
			opDone := make(chan []byte, 1)
			go func() {
				got, err := sess.ReadFile("/hot")
				if err != nil {
					opDone <- nil
					return
				}
				opDone <- got
			}()
			select {
			case got := <-opDone:
				if got != nil {
					if !bytes.Equal(got, hot) {
						t.Fatal("polite read returned corrupt data during overload")
					}
					politeOK++
				}
			case <-time.After(10 * time.Second):
				t.Fatal("polite read hung during overload — deadlock or unbounded queueing")
			}
			time.Sleep(20 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		if politeOK == 0 {
			t.Error("polite tenant made no progress at all during the storm")
		}

		// After the storm: the acknowledged write must reach the origin.
		// Earlier flush attempts may still race residual timeouts, so
		// retry; acknowledged data must never be dropped on failure.
		var flushErr error
		for i := 0; i < 20; i++ {
			if flushErr = node.Proxy.WriteBack(); flushErr == nil {
				break
			}
			if node.BlockCache.DirtyCount() == 0 {
				t.Fatal("flush failed but dirty blocks were discarded")
			}
			time.Sleep(100 * time.Millisecond)
		}
		if flushErr != nil {
			t.Fatalf("write-back never succeeded after the storm: %v", flushErr)
		}
		got, err := fs.ReadFile("/ack")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("acknowledged write lost under overload: %v", err)
		}

		// Overload handling must be visible: admissions happened, overflow
		// was shed retriably, and brownout engaged under the stall.
		counters := node.Metrics.Snapshot().Counters
		if counters["gvfs_qos_admitted_total"] == 0 {
			t.Error("no admissions recorded — QoS was not in the call path")
		}
		if counters["gvfs_qos_rejected_queue_full_total"] == 0 && aggShed.Load() == 0 {
			t.Error("16 streams against 4+8 capacity produced no queue-full sheds")
		}
		if counters["gvfs_qos_brownout_entered_total"] == 0 {
			t.Error("sustained stall queue delay never tripped brownout")
		}
		if aggServed.Load() == 0 {
			t.Error("aggressor was starved completely — shed should be selective, not total")
		}
		t.Logf("overload: polite ok=%d aggressor served=%d shed=%d brownouts=%d",
			politeOK, aggServed.Load(), aggShed.Load(), counters["gvfs_qos_brownout_entered_total"])
	})
}

// isJukeboxErr reports whether err is the retriable NFS3ERR_JUKEBOX
// shed reply.
func isJukeboxErr(err error) bool {
	var ne *nfs3.Error
	return errors.As(err, &ne) && ne.Status == nfs3.ErrJukebox
}

func TestChaosFlapMidFlushNoLostWrites(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		fs := memfs.New()
		wan := simnet.NewLink(simnet.Local())
		c := stacktest.New(t, wbHop(fs, wan, stack.ProxyOptions{
			UpstreamCallTimeout: 500 * time.Millisecond,
			UpstreamMaxRetries:  4,
		}))
		node, sess := c.Hop(), c.Session()
		payload := chaosPattern(64*1024, 6)
		if err := sess.WriteFile("/disk", payload); err != nil {
			t.Fatal(err)
		}
		if node.BlockCache.DirtyCount() == 0 {
			t.Fatal("no dirty blocks absorbed")
		}

		// Slow the WAN so the flush is in flight when the link flaps.
		wan.Stall(100 * time.Millisecond)
		flushErr := make(chan error, 1)
		go func() { flushErr <- node.Proxy.WriteBack() }()
		wan.Flap(2, 5*time.Millisecond)

		err := <-flushErr
		for i := 0; err != nil && i < 10; i++ {
			// A failed flush must keep every dirty block for the retry:
			// acknowledged data is never dropped on error.
			if node.BlockCache.DirtyCount() == 0 {
				t.Fatal("flush failed but dirty blocks were discarded")
			}
			err = node.Proxy.WriteBack()
		}
		if err != nil {
			t.Fatalf("write-back never succeeded after flaps: %v", err)
		}
		got, err := fs.ReadFile("/disk")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("origin content wrong after flush through flaps: %v", err)
		}
		if node.BlockCache.DirtyCount() != 0 {
			t.Error("dirty blocks remain after successful write-back")
		}
	})
}
