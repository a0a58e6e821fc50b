// Command gvfsproxy runs the client-side GVFS proxy on a compute
// server: the disk-caching, meta-data-handling proxy the paper's
// extensions live in. It listens for NFS RPC traffic from the local
// client, serves what it can from its disk cache, and forwards the rest
// to the next hop (typically a gvfsd on the image server) over an
// optionally encrypted channel. With -filechan, a file whose meta-data
// asks for it (a VM's memory state) is fetched whole through the image
// server's file channel into that cache, and written back whole.
//
// The middleware-driven consistency model is exposed through O/S
// signals, exactly as the paper describes:
//
//	SIGUSR1  write back all dirty cached data (keep it cached)
//	SIGUSR2  flush: write back and invalidate all caches
//
// Under -policy write-back every dirty block is journaled to the cache directory before the WRITE is
// acknowledged; a proxy killed mid-session replays the journal to the
// server on its next start, before serving traffic. -journal-sync
// picks the durability mode (batch group-fsync, always, or none) and
// the GVFS_CRASHPOINT environment variable arms the fault-injection
// harness used by the kill-9 recovery tests.
//
// With -qos the proxy admits calls through per-client admission
// control: bounded per-client queues, optional token-bucket rate
// limits (-qos-rate/-qos-burst), byte-weighted deficit-round-robin
// fair sharing in 64 KiB quanta and a global concurrency cap
// (-qos-inflight). Overflow is shed with the retriable
// NFS3ERR_JUKEBOX. -call-budget stamps a default deadline on every
// call (a budget propagated in the GVFS trace verifier wins), and
// -brownout-enter arms the brownout controller that sheds optional
// work and defers cache misses when the admission queue delay grows.
//
// With -backend objstore the proxy needs no upstream at all: images
// live in a local content-addressed object store (-objstore-dir), and
// NFS clients mount the proxy directly. -dedup additionally lets
// identical cached blocks — N cloned VM images — share one disk-cache
// frame, whichever backend is in use.
//
// With -backend repl the proxy fans its upstream over a replica set
// (-replicas objstore:/a,objstore:/b,objstore:/c): per-replica health
// tracking with automatic failover, hedged reads after the p95 of read
// latency, optional majority-ack writes
// (-repl-quorum), and a background scrub that cross-checks block
// hashes between replicas and repairs divergence (-repl-scrub).
// Replica health appears at /statusz and as gvfs_backend_replica_*
// metrics.
//
// With -metrics the proxy serves its unified observability surface
// over HTTP: Prometheus exposition at /metrics (with exemplars when
// the flight recorder is on), the request-trace ring at /traces, the
// structured event log at /logz, the flight recorder at /flightrec,
// per-file/per-client accounting at /statusz, and the Go runtime
// debug endpoints under /debug.
//
// Usage:
//
//	gvfsproxy -listen 127.0.0.1:8049 -upstream imageserver:7049 \
//	          -cache-dir /var/cache/gvfs -policy write-back \
//	          -filechan imageserver:7050 -keyfile session.key \
//	          -metrics 127.0.0.1:9049 -flightrec 256 -log-level info
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gvfs/internal/cache"
	"gvfs/internal/obs"
	"gvfs/internal/stack"
)

func main() {
	flags := stack.BindProxyFlags(flag.CommandLine)
	flag.Parse()

	// Arm the crash fault-injection harness before any cache activity.
	if err := cache.SetCrashpoint(os.Getenv("GVFS_CRASHPOINT")); err != nil {
		log.Fatalf("gvfsproxy: %v", err)
	}
	opts, err := flags.Options()
	if err != nil {
		log.Fatalf("gvfsproxy: %v", err)
	}
	opts.ListenAddr = flags.Listen
	// One registry serves the whole process: proxy counters, log-event
	// counters and the tunnel bridges all land in it.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	events := obs.NewRing[obs.Event](obs.DefaultLogRing) // served at /logz
	logger, closeLog, err := flags.Log.Logger("gvfsproxy", reg, events)
	if err != nil {
		log.Fatalf("gvfsproxy: %v", err)
	}
	defer closeLog()
	opts.Logger = logger

	node, err := stack.StartProxy(opts)
	if err != nil {
		log.Fatalf("gvfsproxy: %v", err)
	}
	logger.Info("proxy up",
		"listen", node.Addr,
		"backend", opts.Backend,
		"upstream", opts.UpstreamAddr,
		"replicas", flags.ReplicaSpecs,
		"cache", node.BlockCache != nil,
		"dedup", opts.CacheConfig != nil && opts.CacheConfig.Dedup,
		"policy", flags.Policy,
		"flightrec", opts.FlightRing)

	stack.BridgeTunnelStats(reg)
	if flags.MetricsAddr != "" {
		ep := obs.Endpoint{
			Registry: reg,
			Tracer:   node.Tracer,
			Log:      events,
			Flight:   node.Flight,
			Statusz:  node.Proxy.WriteStatusz,
		}
		if node.Cachean != nil {
			ep.Cachez = node.Cachean.WriteCachez
		}
		ml, err := ep.ListenAndServe(flags.MetricsAddr)
		if err != nil {
			log.Fatalf("gvfsproxy: metrics: %v", err)
		}
		logger.Info("observability endpoint up", "addr", ml.Addr().String())
	}

	stopStats := func() {}
	if flags.StatsEvery > 0 {
		stopStats = stack.StartStatsLogger(logger, node.Proxy, flags.StatsEvery)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGUSR1, syscall.SIGUSR2, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-node.Done:
			stopStats()
			log.Fatalf("gvfsproxy: serve: %v", err)
		case sig := <-sigs:
			switch sig {
			case syscall.SIGUSR1:
				logger.Info("middleware signal: write back dirty data", "sig", "SIGUSR1")
				if err := node.Proxy.WriteBack(); err != nil {
					logger.Error("write-back failed", "err", err)
				}
			case syscall.SIGUSR2:
				logger.Info("middleware signal: flush caches", "sig", "SIGUSR2")
				if err := node.Proxy.Flush(); err != nil {
					logger.Error("flush failed", "err", err)
				}
			case syscall.SIGINT, syscall.SIGTERM:
				// Graceful shutdown: settle the session, snapshot the
				// cache index so the next start is warm, and stop the
				// stats logger before the server goes away.
				logger.Info("shutting down", "sig", sig.String())
				stopStats()
				if err := node.Proxy.WriteBack(); err != nil {
					logger.Error("shutdown write-back failed", "err", err)
				}
				if node.BlockCache != nil {
					if err := node.BlockCache.SaveIndex(); err != nil {
						logger.Error("cache index snapshot failed", "err", err)
					}
				}
				node.Close()
				return
			}
		}
	}
}
