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
	// WorkDir hosts cache directories (default: the system's temporary
	// directory).
	WorkDir string
	// Verbose enables progress logging to stderr.
	Verbose bool
	// NoEncrypt runs inter-proxy traffic in the clear. By default it
	// goes through tunnels, as in the paper's SSH-forwarded deployments.
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
// 16-way associative, 8 KB blocks (scaled). The chain builder gives it
// a directory.
func (o Options) cacheConfig(policy cache.Policy) *cache.Config {
	frames := int(8 << 30 / 8192 / o.scale())
	assoc := 16
	banks := 32
	sets := frames / assoc / banks
	if sets < 2 {
		sets = 2
	}
	return &cache.Config{Banks: banks, SetsPerBank: sets, Assoc: assoc, BlockSize: 8192, Policy: policy}
}

func benchCred() sunrpc.OpaqueAuth {
	return sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode()
}

// session is the compute server's session: the grid user's
// credential and the scaled buffer cache.
func (o Options) session() gvfs.SessionConfig {
	return gvfs.SessionConfig{Cred: benchCred(), PageCachePages: o.pagePages()}
}

// start builds spec's chain with its cache directories under WorkDir.
func (o Options) start(spec stack.ChainSpec) (*stack.Chain, error) {
	spec.WorkDir = o.WorkDir
	return stack.StartChain(spec)
}

// scenario declares the §4.2 chain for s over fs. Local mounts the
// image server's own proxy, so the code path is the others' minus the
// network; LAN and WAN put a forwarding client proxy across the link,
// and WAN+C gives it a write-back disk cache.
func (o Options) scenario(s Scenario, fs *memfs.FS) stack.ChainSpec {
	spec := stack.ChainSpec{FS: fs, Session: o.session()}
	if s == Local {
		return spec
	}
	spec.Link, spec.Encrypt = simnet.NewLink(simnet.WAN()), !o.NoEncrypt
	if s == LAN {
		spec.Link = simnet.NewLink(simnet.LAN())
	}
	hop := stack.ProxyOptions{}
	if s == WANC {
		hop.CacheConfig = o.cacheConfig(cache.WriteBack)
	}
	spec.Hops = []stack.ProxyOptions{hop}
	return spec
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// Deploy starts one of the §4.2 application scenarios for external
// drivers (examples, tests): Local, LAN, WAN, or WAN+C.
func (o Options) Deploy(fs *memfs.FS, s Scenario) (*stack.Chain, error) {
	return o.start(o.scenario(s, fs))
}
