package stack

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/obs"
	"gvfs/internal/qos"
	"gvfs/internal/tunnel"
)

// LogFlags collects the structured-logging knobs shared by every GVFS
// daemon (gvfsproxy and gvfsd bind the same two flags). Logger() turns
// the parsed values into the process logger.
type LogFlags struct {
	Level string // minimum severity recorded
	File  string // optional log file appended alongside stderr
}

// BindLogFlags registers the logging flags on fs.
func BindLogFlags(fs *flag.FlagSet) *LogFlags {
	f := &LogFlags{}
	fs.StringVar(&f.Level, "log-level", "info", "minimum log severity: debug | info | warn | error")
	fs.StringVar(&f.File, "log-file", "", "append structured log lines to this file as well as stderr")
	return f
}

// Logger builds the daemon's structured logger from the parsed flags:
// text lines to stderr (plus -log-file when given), every event into
// events for /logz, and per-level counters in metrics. The returned
// close function releases the log file; call it at shutdown.
func (f *LogFlags) Logger(component string, metrics *obs.Registry, events *obs.Ring[obs.Event]) (*slog.Logger, func(), error) {
	level, err := obs.ParseLevel(f.Level)
	if err != nil {
		return nil, nil, err
	}
	var out io.Writer = os.Stderr
	closeFn := func() {}
	if f.File != "" {
		fl, err := os.OpenFile(f.File, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0644)
		if err != nil {
			return nil, nil, fmt.Errorf("open log file: %w", err)
		}
		out = io.MultiWriter(os.Stderr, fl)
		closeFn = func() { fl.Close() }
	}
	h := obs.NewLogHandler(level, out, events, metrics)
	return slog.New(h).With("component", component), closeFn, nil
}

// ProxyFlags is what a proxy daemon's command line parses into. Every
// flag that IS a proxy setting is bound straight to the ProxyOptions
// field (or cache.Config / qos.Config field) it sets, so no setting is
// declared twice; the struct's own fields are the values the daemon
// acts on itself and the strings Options() has to parse. Benchmarks and
// tests fill the same ProxyOptions directly — one construction path.
type ProxyFlags struct {
	// Daemon-level settings (not part of ProxyOptions).
	Listen      string        // listen address for local NFS clients
	MetricsAddr string        // observability HTTP endpoint (empty = off)
	StatsEvery  time.Duration // periodic stats logging (0 = off)
	Log         *LogFlags     // shared logging flags (gvfsd binds them standalone)

	// Strings Options() parses into typed option values.
	Policy       string // write-back | write-through
	JournalSync  string // batch | always | none
	Keyfile      string // 32-byte tunnel session key file
	ReplicaSpecs string // comma-separated replica specs (backend repl)

	// Flag-bound option values. cache and qos reach the options only
	// when -cache-dir, or -qos / -brownout-enter, switch them on.
	opts  ProxyOptions
	cache cache.Config
	qos   qos.Config
	qosOn bool
}

// BindProxyFlags registers the proxy daemon's flags on fs and returns
// the struct they parse into.
func BindProxyFlags(fs *flag.FlagSet) *ProxyFlags {
	f := &ProxyFlags{}
	o, c, q, r := &f.opts, &f.cache, &f.qos, &f.opts.ReplConfig
	fs.StringVar(&f.Listen, "listen", "127.0.0.1:8049", "listen address for local NFS clients")
	fs.StringVar(&o.UpstreamAddr, "upstream", "", "next hop (gvfsd or another gvfsproxy); required with -backend nfs3")
	fs.StringVar(&f.Keyfile, "keyfile", "", "32-byte session key for the upstream tunnel")
	fs.StringVar(&o.Backend, "backend", BackendNFS3, "upstream backend: nfs3 (RPC to -upstream) | objstore (local content-addressed store) | repl (replicated set, see -replicas)")
	fs.StringVar(&o.ObjstoreDir, "objstore-dir", "", "object store directory (required with -backend objstore)")
	fs.StringVar(&f.ReplicaSpecs, "replicas", "", "comma-separated replica specs for -backend repl: objstore:<dir> | nfs3:<host:port> (first is the write primary)")
	fs.BoolVar(&r.Quorum, "repl-quorum", false, "acknowledge writes after a majority of replicas instead of the primary only")
	fs.DurationVar(&r.ScrubInterval, "repl-scrub", 0, "background scrub/read-repair pass interval (0 = default 30s, negative = off)")
	fs.BoolVar(&c.Dedup, "dedup", false, "share identical cached blocks across files (content-addressed dedup; needs -cache-dir)")
	fs.StringVar(&c.Dir, "cache-dir", "", "block cache directory (empty = no disk cache)")
	fs.IntVar(&c.Banks, "cache-banks", 512, "number of cache banks")
	fs.IntVar(&c.SetsPerBank, "cache-sets", 128, "sets per bank")
	fs.IntVar(&c.Assoc, "cache-assoc", 16, "cache associativity")
	fs.IntVar(&c.BlockSize, "cache-block", 8192, "cache block size (<= 32768)")
	fs.StringVar(&f.Policy, "policy", "write-back", "write policy: write-back | write-through")
	fs.StringVar(&f.JournalSync, "journal-sync", "batch", "write-back journal durability: batch (group fsync) | always (fsync per write) | none (testing)")
	fs.StringVar(&o.FileChanAddr, "filechan", "", "image server file-channel address: files whose meta-data asks for it are fetched whole into the block cache (needs -cache-dir)")
	bindCompatFlags(fs)
	fs.IntVar(&o.ReadAhead, "readahead", 0, "sequential read-ahead in blocks, rounded up to 32 KiB runs (0 = off)")
	fs.DurationVar(&o.IdleWriteBack, "idle-writeback", 0, "write dirty data back after this idle period (0 = only on signals)")
	fs.DurationVar(&f.StatsEvery, "stats", 0, "print proxy statistics at this interval (0 = off)")
	fs.DurationVar(&o.UpstreamCallTimeout, "call-timeout", 0, "per-call deadline on upstream RPCs (0 = wait forever)")
	fs.IntVar(&o.UpstreamMaxRetries, "max-retries", 0, "retransmission attempts for idempotent upstream calls (0 = no retries; the replicas of -backend repl never retransmit, the set fails over)")
	fs.IntVar(&o.FailureThreshold, "failure-threshold", 0, "consecutive upstream failures that open the circuit breaker, or mark one replica of -backend repl down (0 = default)")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", 0, "recovery probe period while the breaker is open, or a replica is down (0 = default)")
	fs.StringVar(&f.MetricsAddr, "metrics", "", "serve /metrics, /traces, /logz, /flightrec, /statusz and /debug on this address (empty = off)")
	fs.IntVar(&o.TraceRing, "trace-ring", 0, "keep the last N request traces for /traces (0 = tracing off)")
	fs.IntVar(&o.FlightRing, "flightrec", 0, "retain the last N slow/error call recordings for /flightrec (0 = off)")
	fs.DurationVar(&o.SlowThreshold, "slow-threshold", 0, "latency that promotes a call to the flight recorder (0 = default 100ms)")
	fs.BoolVar(&f.qosOn, "qos", false, "enable per-client admission control and fair-share scheduling")
	fs.IntVar(&q.MaxConcurrent, "qos-inflight", 0, "global concurrent-call cap under -qos (0 = default 64)")
	fs.IntVar(&q.PerClientQueue, "qos-queue", 0, "per-client admission queue bound under -qos (0 = default 128)")
	fs.Float64Var(&q.RatePerSec, "qos-rate", 0, "per-client token-bucket rate in bytes/s (0 = no rate limit)")
	fs.Float64Var(&q.Burst, "qos-burst", 0, "per-client token-bucket capacity in bytes (0 = rate)")
	fs.DurationVar(&q.BrownoutEnter, "brownout-enter", 0, "sustained queue delay that trips brownout degradation (0 = off)")
	fs.DurationVar(&o.CallBudget, "call-budget", 0, "default end-to-end deadline for calls without a propagated budget (0 = off)")
	fs.BoolVar(&o.Cachean, "cachean", false, "enable cache analytics: miss-ratio curves, working sets, what-if sizing (/cachez)")
	f.Log = BindLogFlags(fs)
	return f
}

// ParsePolicy maps a policy flag value to the cache write policy.
func ParsePolicy(name string) (cache.Policy, error) {
	switch name {
	case "write-back":
		return cache.WriteBack, nil
	case "write-through":
		return cache.WriteThrough, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// ReadKeyfile loads and validates a tunnel session key. An empty path
// returns a nil key (no tunnel).
func ReadKeyfile(path string) ([]byte, error) {
	if path == "" {
		return nil, nil
	}
	key, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(key) != tunnel.KeySize {
		return nil, fmt.Errorf("key must be %d bytes, got %d", tunnel.KeySize, len(key))
	}
	return key, nil
}

// Options turns the parsed flags into the ProxyOptions StartProxy
// takes: it reads the keyfile, parses the write policy, journal sync
// mode and replica list, and validates the backend selection. Each call
// returns an independent value. ListenAddr stays empty — -listen is a
// daemon-level flag the daemon copies in itself, so one process can
// start several proxies from several flag sets.
func (f *ProxyFlags) Options() (ProxyOptions, error) {
	opts := f.opts
	key, err := ReadKeyfile(f.Keyfile)
	if err != nil {
		return ProxyOptions{}, err
	}
	opts.UpstreamKey, opts.FileChanKey = key, key
	switch opts.Backend {
	case "", BackendNFS3:
		if opts.UpstreamAddr == "" {
			return ProxyOptions{}, fmt.Errorf("-upstream is required with -backend nfs3")
		}
	case BackendObjstore:
		if opts.ObjstoreDir == "" {
			return ProxyOptions{}, fmt.Errorf("-objstore-dir is required with -backend objstore")
		}
	case BackendRepl:
		if f.ReplicaSpecs == "" {
			return ProxyOptions{}, fmt.Errorf("-replicas is required with -backend repl")
		}
		opts.Replicas = strings.Split(f.ReplicaSpecs, ",")
	default:
		return ProxyOptions{}, fmt.Errorf("unknown -backend %q (want nfs3, objstore or repl)", opts.Backend)
	}
	cc := f.cache
	cc.Journal = true // dirty blocks are journaled before a write-back WRITE is acknowledged
	if cc.Policy, err = ParsePolicy(f.Policy); err != nil {
		return ProxyOptions{}, err
	}
	if cc.JournalSync, err = cache.ParseSyncMode(f.JournalSync); err != nil {
		return ProxyOptions{}, err
	}
	if cc.Dir != "" {
		opts.CacheConfig = &cc
	} else if cc.Dedup {
		return ProxyOptions{}, fmt.Errorf("-dedup needs -cache-dir")
	}
	if f.qosOn || f.qos.BrownoutEnter > 0 {
		qc := f.qos
		opts.QoS = &qc
	}
	return opts, nil
}
