package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// Scenario names the storage configurations of §4.2 and §4.3.
type Scenario string

// Application-execution scenarios (Figures 3–5).
const (
	Local Scenario = "Local"
	LAN   Scenario = "LAN"
	WAN   Scenario = "WAN"
	WANC  Scenario = "WAN+C"
)

// Options parameterize all experiments.
type Options struct {
	// Scale divides data sizes and compute times (default 64).
	Scale float64
	// WorkDir hosts cache directories (default: a fresh temp dir).
	WorkDir string
	// Verbose enables progress logging to stderr.
	Verbose bool
	// Encrypt runs inter-proxy traffic through tunnels (default true,
	// as in the paper's SSH-forwarded deployments).
	NoEncrypt bool
	// ResultsDir, when set, receives machine-readable BENCH_*.json
	// reports from experiments that emit them.
	ResultsDir string
}

// writeResults stores a JSON report under ResultsDir; it is a no-op
// when no results directory is configured.
func (o Options) writeResults(name string, v any) error {
	if o.ResultsDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.ResultsDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.ResultsDir, name), append(blob, '\n'), 0o644)
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 64
	}
	return o.Scale
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// pagePages returns the buffer-cache page budget for sessions.
func (o Options) pagePages() int {
	// 512 MB at paper scale (65536 pages of 8 KB), divided by the
	// scale. The paper's compute servers had 1 GB of RAM and the VM
	// 512 MB, so application working sets (SPECseis trace, LaTeX
	// distribution, kernel tree) were buffer-cached after first touch;
	// the WAN/WAN+C gaps come from cold misses and writes, which is
	// exactly what this budget reproduces.
	pages := int(float64(65536) / o.scale())
	// Floor: at extreme scale factors block granularity stops
	// shrinking with file sizes (every tiny file still costs a page),
	// so keep enough pages for the workloads' block counts.
	if pages < 64 {
		pages = 64
	}
	return pages
}

// cacheConfig sizes the proxy disk cache like the paper's: 8 GB,
// 16-way associative, 8 KB blocks (scaled).
func (o Options) cacheConfig(dir string, policy cache.Policy) cache.Config {
	frames := int(8 << 30 / 8192 / o.scale())
	assoc := 16
	banks := 32
	sets := frames / assoc / banks
	if sets < 2 {
		sets = 2
	}
	return cache.Config{
		Dir: dir, Banks: banks, SetsPerBank: sets, Assoc: assoc,
		BlockSize: 8192, Policy: policy,
	}
}

// Deployment is one assembled scenario: an image server, the proxy
// chain for the scenario, and a mounted session.
type Deployment struct {
	Scenario    Scenario
	FS          *memfs.FS
	Server      *stack.ImageServer
	ClientProxy *stack.Node // nil when the scenario has no client proxy
	LANProxy    *stack.Node // second-level cache node (WAN-S3 only)
	Session     *gvfs.Session
	WANLink     *simnet.Link
	LANLink     *simnet.Link

	closers []func()
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// NewSession mounts an additional session on the same chain entry
// point (used by warm-up passes and multi-client experiments).
func (d *Deployment) NewSession(o Options) (*gvfs.Session, error) {
	addr := d.Server.ProxyAddr()
	if d.ClientProxy != nil {
		addr = d.ClientProxy.Addr
	}
	return gvfs.Mount(gvfs.SessionConfig{
		Addr:           addr,
		Export:         "/",
		Cred:           benchCred(),
		PageCachePages: o.pagePages(),
	})
}

func benchCred() sunrpc.OpaqueAuth {
	return sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode()
}

// linkFor builds the network path for a scenario.
func linkFor(s Scenario) *simnet.Link {
	switch s {
	case LAN:
		return simnet.NewLink(simnet.LAN())
	case WAN, WANC:
		return simnet.NewLink(simnet.WAN())
	}
	return nil
}

// deployConfig controls chain construction beyond the scenario name.
type deployConfig struct {
	scenario Scenario
	// blockCache enables the client proxy disk cache.
	blockCache bool
	policy     cache.Policy
	// fileChan gives the client proxy the image server's file channel:
	// a file whose meta-data asks for it is fetched whole into the block
	// cache.
	fileChan bool
	// direct connects the session straight to the image server's NFS
	// daemon across the scenario link: the "pure NFS" baseline with
	// no GVFS proxies at all.
	direct bool
}

// deploy assembles a scenario chain over fs.
func (o Options) deploy(fs *memfs.FS, dc deployConfig) (*Deployment, error) {
	d := &Deployment{Scenario: dc.scenario, FS: fs}

	if dc.direct {
		// Pure NFS across the link: no proxies, no mapping, no caches.
		node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{ListenLink: linkFor(dc.scenario)})
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, node.Close)
		sess, err := gvfs.Mount(gvfs.SessionConfig{
			Addr: node.Addr, Export: "/", Cred: benchCred(), PageCachePages: o.pagePages(),
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Session = sess
		d.closers = append(d.closers, func() { sess.Close() })
		return d, nil
	}

	d.WANLink = linkFor(dc.scenario)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{
		Link:    d.WANLink,
		Encrypt: !o.NoEncrypt && dc.scenario != Local,
	})
	if err != nil {
		return nil, err
	}
	d.Server = server
	d.closers = append(d.closers, server.Close)

	// Local scenario: mount through the (local) server proxy so the code
	// path is identical minus the network.
	sessionAddr := server.ProxyAddr()
	if dc.scenario != Local {
		popts := stack.ProxyOptions{
			UpstreamAddr: server.ProxyAddr(),
			UpstreamLink: d.WANLink,
			UpstreamKey:  server.Key,
		}
		if dc.blockCache {
			dir, err := os.MkdirTemp(o.WorkDir, "blockcache")
			if err != nil {
				d.Close()
				return nil, err
			}
			cfg := o.cacheConfig(dir, dc.policy)
			popts.CacheConfig = &cfg
			d.closers = append(d.closers, func() { os.RemoveAll(dir) })
		}
		if dc.fileChan {
			popts.FileChanAddr = server.FileChanAddr()
			popts.FileChanLink = d.WANLink
			popts.FileChanKey = server.Key
		}
		node, err := stack.StartProxy(popts)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.ClientProxy = node
		d.closers = append(d.closers, node.Close)
		sessionAddr = node.Addr
	}

	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           sessionAddr,
		Export:         "/",
		Cred:           benchCred(),
		PageCachePages: o.pagePages(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.Session = sess
	d.closers = append(d.closers, func() { sess.Close() })
	return d, nil
}

// appDeploy builds the §4.2 scenarios: Local, LAN, WAN (forwarding
// proxies only) and WAN+C (client proxy disk cache, write-back).
func (o Options) appDeploy(fs *memfs.FS, s Scenario) (*Deployment, error) {
	dc := deployConfig{scenario: s}
	if s == WANC {
		dc.blockCache = true
		dc.policy = cache.WriteBack
	}
	return o.deploy(fs, dc)
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// Deploy assembles one of the §4.2 application scenarios for external
// drivers (examples, tests): Local, LAN, WAN, or WAN+C.
func (o Options) Deploy(fs *memfs.FS, s Scenario) (*Deployment, error) {
	return o.appDeploy(fs, s)
}
