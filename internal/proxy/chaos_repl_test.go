package proxy_test

// Chaos suite for the replicated upstream backend: a session mounted
// through a proxy whose data path fans over three identically seeded
// NFS replicas, each reached across its own simnet link. Faults —
// partition+kill, stall, flap — hit one replica mid-workload. The
// invariants are the replication contract: zero client-visible
// failures while any replica survives, hedged reads bound the latency
// of a stalled replica, and scrub/read-repair reconverges a replica
// that missed acknowledged writes.

import (
	"bytes"
	"testing"
	"time"

	"gvfs/internal/backend/replbe"
	"gvfs/internal/bubble"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/proxy"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
	"gvfs/internal/sunrpc"
)

// replChain declares a session on a proxy whose backend is a replica set
// of three NFS servers over identically seeded file systems, one link per
// replica client (profiles[i] shapes replica i's). The control plane
// (MOUNT/LOOKUP/GETATTR relay) rides an unshaped connection to server 0,
// so data-path faults on the links never touch it — the failure under
// test is a replica, not the namespace. A small write-through cache keeps
// READ/WRITE on the backend data path (a cache-less relay would forward
// them verbatim) while staying far smaller than the working set, so reads
// keep missing into the replica set instead of being absorbed.
func replChain(t *testing.T, profiles []simnet.Profile, seed func(*memfs.FS),
	rcfg replbe.Config, cliOpts sunrpc.ClientOptions) *stack.Chain {
	return stacktest.New(t, stack.ChainSpec{Upstream: stack.Repl, Replicas: profiles, Seed: seed, ReplicaClient: cliOpts,
		Hops: []stack.ProxyOptions{{ReplConfig: rcfg,
			CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 1, BlockSize: 8192, Policy: cache.WriteThrough}}}})
}

// repl returns the composite's current stats from /statusz.
func repl(t *testing.T, c *stack.Chain) *replbe.Stats {
	t.Helper()
	doc := c.Hop().Proxy.Statusz()
	if doc.Replication == nil {
		t.Fatal("statusz carries no replication section for a repl-backend proxy")
	}
	return doc.Replication
}

// waitRepl polls the replication stats until cond holds.
func waitRepl(t *testing.T, c *stack.Chain, what string, timeout time.Duration, cond func(*replbe.Stats) bool) {
	t.Helper()
	proxy.WaitUntil(t, "replica set to reach "+what, timeout, func() bool { return cond(repl(t, c)) })
}

// TestChaosReplicaKillMidWorkload partitions and kills one replica in
// the middle of a mixed read/write workload. The client must see zero
// failures, the composite must observe the outage (down transition or
// failovers), and after the link heals the probe loop plus scrub must
// reconverge the dead replica to the exact acknowledged content.
func TestChaosReplicaKillMidWorkload(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		img := chaosPattern(1<<20, 21) // 8x the block cache: reads keep missing
		out := chaosPattern(64<<10, 22)
		seed := func(fs *memfs.FS) {
			fs.WriteFile("/img", img)
			fs.WriteFile("/out", out)
		}
		c := replChain(t, nil, seed, replbe.Config{
			FailThreshold: 2,
			ProbeInterval: 50 * time.Millisecond,
			ScrubInterval: 100 * time.Millisecond,
			HedgeQuantile: -1, // isolate failover from hedging
		}, sunrpc.ClientOptions{CallTimeout: 250 * time.Millisecond, MaxRetries: 1})

		f, err := c.Session().Open("/img")
		if err != nil {
			t.Fatal(err)
		}
		of, err := c.Session().Open("/out")
		if err != nil {
			t.Fatal(err)
		}

		// The workload: strided 8 KiB reads over /img (cache-defeating) and
		// periodic overwrites of /out blocks, single-threaded so every
		// failure is attributable. Halfway through, replica 1 dies.
		want := append([]byte(nil), out...)
		buf := make([]byte, 8192)
		const rounds = 120
		for i := 0; i < rounds; i++ {
			if i == rounds/2 {
				c.ReplicaLinks[1].Partition() // redials fail like a dead host...
				c.ReplicaLinks[1].Drop()      // ...and established connections die now
			}
			boff := int64((i * 37 % 128) * 8192)
			if _, err := f.ReadAt(buf, boff); err != nil {
				t.Fatalf("read %d (off %d): client saw a replica failure: %v", i, boff, err)
			}
			if !bytes.Equal(buf, img[boff:boff+8192]) {
				t.Fatalf("read %d returned wrong content", i)
			}
			if i%10 == 0 {
				blk := chaosPattern(8192, byte(23+i))
				woff := int64(i % 8 * 8192)
				if _, err := of.WriteAt(blk, woff); err != nil {
					t.Fatalf("write %d: client saw a replica failure: %v", i, err)
				}
				copy(want[woff:], blk)
			}
		}
		if err := of.Close(); err != nil {
			t.Fatalf("close after kill: %v", err)
		}

		// The outage must have been real and observed by the composite —
		// through a read/commit failover or through the replication queue
		// failing its applies. Both paths are asynchronous to the client
		// workload, so poll.
		waitRepl(t, c, "replica 1 outage observed", 5*time.Second, func(s *replbe.Stats) bool {
			return s.Replicas[1].Transitions > 0 || s.Failovers > 0
		})

		// Heal. Probes mark the replica up; the scrub repairs every file it
		// missed writes for; the replica's own store must converge to the
		// acknowledged bytes.
		c.ReplicaLinks[1].Heal()
		waitRepl(t, c, "replica 1 healthy", 10*time.Second, func(s *replbe.Stats) bool {
			return s.Replicas[1].State == "healthy"
		})
		deadline := time.Now().Add(15 * time.Second)
		for {
			got, err := c.Replicas[1].ReadFile("/out")
			if err == nil && bytes.Equal(got, want) {
				break
			}
			if time.Now().After(deadline) {
				st := repl(t, c)
				t.Fatalf("replica 1 never reconverged after heal (stale=%d pending=%d scrub=%+v)",
					st.Replicas[1].StaleFiles, st.Replicas[1].PendingRepl, st.Scrub)
			}
			time.Sleep(50 * time.Millisecond)
		}
		waitRepl(t, c, "no stale files on replica 1", 10*time.Second, func(s *replbe.Stats) bool {
			return s.Replicas[1].StaleFiles == 0 && s.Replicas[1].PendingRepl == 0
		})
	})
}

// TestChaosReplicaStallHedgedReads shapes replicas 1 and 2 with a few
// milliseconds of RTT so replica 0 is the EWMA-preferred read target,
// then freezes replica 0's link. Reads issued during the stall must be
// answered by hedges against the next-best replica — bounded far below
// the stalled replica's call timeout — and the hedge counters must show
// the second request both firing and winning.
func TestChaosReplicaStallHedgedReads(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		img := chaosPattern(1<<20, 31)
		seed := func(fs *memfs.FS) { fs.WriteFile("/img", img) }
		near := simnet.Profile{Name: "near", RTT: 4 * time.Millisecond}
		c := replChain(t, []simnet.Profile{simnet.Local(), near, near}, seed,
			replbe.Config{
				FailThreshold: 10, // keep r0 "up but slow" so every stalled read hedges
				ProbeInterval: 50 * time.Millisecond,
				ScrubInterval: -1,
				HedgeBudget:   0.5,
			}, sunrpc.ClientOptions{CallTimeout: 500 * time.Millisecond, MaxRetries: 1})

		f, err := c.Session().Open("/img")
		if err != nil {
			t.Fatal(err)
		}
		// Warm the latency distribution past the hedge arming threshold:
		// 32 distinct blocks, each a cache miss, almost all served by the
		// fast replica once the EWMA ordering settles. The blocks are a miss
		// run apart, so none has its predecessor resident and every READ is
		// one backend read.
		buf := make([]byte, 8192)
		for i := 0; i < 32; i++ {
			off := int64(i) * nfs3.MaxTransfer
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatalf("warm read %d: %v", i, err)
			}
			if !bytes.Equal(buf, img[off:off+8192]) {
				t.Fatalf("warm read %d returned wrong content", i)
			}
		}
		if d := repl(t, c).HedgeDelayNs; d == 0 {
			t.Fatal("hedge delay still warming up after 32 backend reads")
		}

		// Freeze replica 0's link and read blocks never touched before.
		// Each read's first attempt stalls; the hedge must answer from a
		// shaped-but-live replica in a few milliseconds.
		c.ReplicaLinks[0].Stall(3 * time.Second)
		start := time.Now()
		for i := 0; i < 8; i++ {
			off := int64(i)*nfs3.MaxTransfer + 2*8192 // mid-run, predecessor never read
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatalf("stalled read %d: %v", i, err)
			}
			if !bytes.Equal(buf, img[off:off+8192]) {
				t.Fatalf("stalled read %d returned wrong content", i)
			}
		}
		elapsed := time.Since(start)
		st := repl(t, c)
		if st.HedgesFired == 0 {
			t.Error("no hedges fired against a stalled primary")
		}
		if st.HedgesWon == 0 {
			t.Error("no hedge won against a stalled primary")
		}
		// 8 reads against a 3 s stall: hedged service must beat waiting out
		// the stall or the 500 ms call timeout per read.
		if elapsed > 2*time.Second {
			t.Errorf("8 hedged reads took %v under a stalled primary — hedging did not bound latency", elapsed)
		}
		t.Logf("stall: 8 reads in %v, hedges fired=%d won=%d delay=%v",
			elapsed, st.HedgesFired, st.HedgesWon, time.Duration(st.HedgeDelayNs))
	})
}

// TestChaosPrimaryFlapWriteFailover flaps the write primary's link
// while the session overwrites a replicated file. WRITE is not
// transport-retry-safe, so a connection killed mid-call surfaces to
// the composite, which must fail the write over to the next replica
// instead of the client — zero visible errors — and the set must
// reconverge on every replica once the flapping stops.
func TestChaosPrimaryFlapWriteFailover(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		out := chaosPattern(128<<10, 41)
		seed := func(fs *memfs.FS) { fs.WriteFile("/out", out) }
		c := replChain(t, nil, seed, replbe.Config{
			FailThreshold: 2,
			ProbeInterval: 25 * time.Millisecond,
			ScrubInterval: 100 * time.Millisecond,
			HedgeQuantile: -1,
		}, sunrpc.ClientOptions{CallTimeout: 250 * time.Millisecond, MaxRetries: 1})

		of, err := c.Session().Open("/out")
		if err != nil {
			t.Fatal(err)
		}
		flapDone := make(chan struct{})
		go func() {
			defer close(flapDone)
			c.ReplicaLinks[0].Flap(6, 40*time.Millisecond)
		}()

		// Write-through traffic for the duration of the flapping: every
		// WriteAt reaches replbe.Write synchronously, so a mid-call
		// connection kill exercises the primary-failover path.
		want := append([]byte(nil), out...)
		i := 0
		for {
			select {
			case <-flapDone:
			default:
				blk := chaosPattern(8192, byte(43+i))
				woff := int64(i % 16 * 8192)
				if _, err := of.WriteAt(blk, woff); err != nil {
					t.Fatalf("write %d during primary flap: client saw the fault: %v", i, err)
				}
				copy(want[woff:], blk)
				i++
				time.Sleep(5 * time.Millisecond)
				continue
			}
			break
		}
		if i == 0 {
			t.Fatal("workload issued no writes while the link flapped")
		}
		if err := of.Close(); err != nil {
			t.Fatalf("close after flaps: %v", err)
		}

		// Every replica — including the flapped primary — must converge to
		// the acknowledged content once replication and scrub settle.
		deadline := time.Now().Add(15 * time.Second)
		for r := 0; r < 3; r++ {
			for {
				got, err := c.Replicas[r].ReadFile("/out")
				if err == nil && bytes.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					st := repl(t, c)
					t.Fatalf("replica %d diverged after primary flaps (stats: %+v)", r, *st)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
		waitRepl(t, c, "all replicas healthy and drained", 10*time.Second, func(s *replbe.Stats) bool {
			for _, rs := range s.Replicas {
				if rs.State != "healthy" || rs.StaleFiles != 0 || rs.PendingRepl != 0 {
					return false
				}
			}
			return true
		})
		t.Logf("flap: %d writes, failovers=%d scrub=%+v", i, repl(t, c).Failovers, repl(t, c).Scrub)
	})
}
