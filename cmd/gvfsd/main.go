// Command gvfsd runs the server-side GVFS services on an image server:
// the proxy that authenticates requests and maps Grid users onto
// short-lived logical accounts before forwarding to the local NFS
// server, and the file-channel service used by client-side proxies for
// meta-data-driven whole-file transfers.
//
// Usage:
//
//	gvfsd -listen :7049 -upstream 127.0.0.1:2049 \
//	      -filechan-listen :7050 -root /srv/images \
//	      -keyfile session.key
//
// The session key file (32 bytes) enables SSH-style encrypted private
// channels; generate one with -genkey.
//
// With -metrics the daemon serves the same observability surface as
// gvfsproxy: /metrics, /traces, /logz, /flightrec, /statusz and
// /debug. SIGINT/SIGTERM shut the services down cleanly.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/filechan"
	"gvfs/internal/obs"
	"gvfs/internal/osfs"
	"gvfs/internal/stack"
	"gvfs/internal/tunnel"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7049", "proxy listen address")
	upstream := flag.String("upstream", "127.0.0.1:2049", "local NFS server address")
	fcListen := flag.String("filechan-listen", "127.0.0.1:7050", "file-channel listen address")
	root := flag.String("root", "", "export root served by the file channel (empty = disabled)")
	keyfile := flag.String("keyfile", "", "32-byte session key file enabling tunnels")
	genkey := flag.Bool("genkey", false, "generate a key into -keyfile and exit")
	idBase := flag.Uint("identity-base", 60000, "first UID of the logical account pool")
	idCount := flag.Uint("identity-count", 1000, "size of the logical account pool")
	idTTL := flag.Duration("identity-ttl", 30*time.Minute, "lifetime of short-lived identities")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /traces, /logz, /flightrec, /statusz and /debug on this address (empty = off)")
	traceRing := flag.Int("trace-ring", 0, "keep the last N request traces for /traces (0 = tracing off)")
	flightRing := flag.Int("flightrec", 0, "retain the last N slow/error call recordings for /flightrec (0 = off)")
	slowThresh := flag.Duration("slow-threshold", 0, "latency that promotes a call to the flight recorder (0 = default 100ms)")
	statsEvery := flag.Duration("stats", 0, "log daemon statistics at this interval (0 = off)")
	logFlags := stack.BindLogFlags(flag.CommandLine)
	flag.Parse()

	if *genkey {
		if *keyfile == "" {
			log.Fatal("gvfsd: -genkey requires -keyfile")
		}
		key := make([]byte, tunnel.KeySize)
		if _, err := rand.Read(key); err != nil {
			log.Fatalf("gvfsd: %v", err)
		}
		if err := os.WriteFile(*keyfile, key, 0600); err != nil {
			log.Fatalf("gvfsd: %v", err)
		}
		fmt.Printf("gvfsd: wrote session key to %s\n", *keyfile)
		return
	}

	key, err := stack.ReadKeyfile(*keyfile)
	if err != nil {
		log.Fatalf("gvfsd: read key: %v", err)
	}

	// One registry serves the whole process, exactly as in gvfsproxy.
	reg := obs.NewRegistry()
	events := obs.NewRing[obs.Event](obs.DefaultLogRing) // served at /logz
	logger, closeLog, err := logFlags.Logger("gvfsd", reg, events)
	if err != nil {
		log.Fatalf("gvfsd: %v", err)
	}
	defer closeLog()

	alloc := auth.NewAllocator(uint32(*idBase), uint32(*idCount), *idTTL)
	node, err := stack.StartProxy(stack.ProxyOptions{
		ListenAddr:    *listen,
		ListenKey:     key,
		UpstreamAddr:  *upstream,
		Mapper:        auth.NewMapper(alloc),
		TraceRing:     *traceRing,
		FlightRing:    *flightRing,
		SlowThreshold: *slowThresh,
		Metrics:       reg,
		Logger:        logger,
	})
	if err != nil {
		log.Fatalf("gvfsd: %v", err)
	}
	if *metricsAddr != "" {
		stack.BridgeTunnelStats(reg)
		ep := obs.Endpoint{
			Registry: reg,
			Tracer:   node.Tracer,
			Log:      events,
			Flight:   node.Flight,
			Statusz:  node.Proxy.WriteStatusz,
		}
		ml, err := ep.ListenAndServe(*metricsAddr)
		if err != nil {
			log.Fatalf("gvfsd: metrics: %v", err)
		}
		logger.Info("observability endpoint up", "addr", ml.Addr().String())
	}
	stopStats := func() {}
	if *statsEvery > 0 {
		stopStats = stack.StartStatsLogger(logger, node.Proxy, *statsEvery)
	}
	logger.Info("proxy up",
		"listen", node.Addr,
		"upstream", *upstream,
		"tunnel", key != nil)

	var fcClose func()
	if *root != "" {
		store, err := osfs.New(*root)
		if err != nil {
			log.Fatalf("gvfsd: %v", err)
		}
		fcl, err := stack.ListenOn(*fcListen, nil, key)
		if err != nil {
			log.Fatalf("gvfsd: filechan listen: %v", err)
		}
		logger.Info("file channel up", "root", *root, "addr", fcl.Addr().String())
		fcSrv := filechan.NewServer(store)
		fcClose = func() { fcSrv.Close(); fcl.Close() }
		go func() {
			if err := fcSrv.Serve(fcl); err != nil {
				logger.Error("file channel stopped", "err", err)
			}
		}()
	}

	// Signal-driven clean shutdown, mirroring gvfsproxy: stop the stats
	// logger, close every listener, and let background probing exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("shutting down", "sig", sig.String())
		stopStats()
		if fcClose != nil {
			fcClose()
		}
		node.Close()
	case err := <-node.Done:
		stopStats()
		log.Fatalf("gvfsd: serve: %v", err)
	}
}
