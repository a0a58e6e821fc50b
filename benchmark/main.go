// Command benchmark is the repository's one repeatable benchmark of
// the GVFS proxy chain. See README.md in this directory.
//
//	bash benchmark/run.sh                         every workload, timed and traced
//	bash benchmark/run.sh -workload warm_hit      one timed run
//	bash benchmark/run.sh -workload warm_hit -trace 1 -trace-out spans.jsonl
//	bash benchmark/run.sh -agree                  two sets of runs compared by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	traceOut string
	// smoke is the self-test's setting and has no flag: a sixteenth of
	// the data and a 10x faster WAN, so every code path still executes in
	// a fraction of a second. Such numbers mean nothing.
	smoke bool
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// Timed runs: the kept windows and the set-up times, printed but not
	// part of the result.
	windows []sample
	setups  setupTimes
}

// environment is printed before the metrics of every run.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Clients    int     `json:"clients"`
	Workdir    string  `json:"workdir"`
	WorkdirFS  string  `json:"workdir_fs"`
}

const defaultSeed = 20040604 // HPDC 2004

func main() {
	var cfg config
	var trace int
	var agree, spec bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (warm_hit, cold_scan, write_flush, wan_clone); empty runs all, timed and traced, each in a child process")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed for image bytes, offsets, extents and payloads")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for cache, journal and file-cache files (default /dev/shm when usable, else .bench_build/work)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans as JSON lines to this file")
	flag.BoolVar(&agree, "agree", false, "run every workload on ten seeds, twice, and fail when a spread or the drift between the sets exceeds a metric's bound")
	flag.BoolVar(&spec, "spec", false, "print the BENCHMARK.json that matches this program's declarations and exit")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	var err error
	switch {
	case spec:
		err = printSpec()
	case agree:
		err = runAgree(cfg)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg config) error {
	runtime.GOMAXPROCS(1) // see README, "What is held fixed"
	dir, fsName, err := chooseWorkdir(cfg.workdir)
	if err != nil {
		return err
	}
	cfg.workdir = dir
	defer os.RemoveAll(dir)

	env := environment{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GitSHA: gitSHA(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Clients: nClients, Workdir: dir, WorkdirFS: fsName}
	line, _ := json.Marshal(env)
	fmt.Printf("%s\n", line)

	res, err := measure(cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if cfg.trace {
		crossCheck(res.Metrics)
	} else {
		printWindows(res.windows)
		fmt.Printf("set-up as measured on this host's clock: median %.6g s of %d (setup_s is on the reference's clock)\n",
			median(res.setups.measured), len(res.setups.measured))
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// measure runs the workload cfg names and returns its result. cfg.workdir
// must exist.
func measure(cfg config) (result, error) {
	var res result
	var err error
	switch spec, raw := rawSpecs[cfg.workload]; {
	case raw:
		res, err = runRaw(cfg, spec.scaled(cfg.smoke))
	case cfg.workload == "wan_clone":
		res, err = runClone(cfg)
	default:
		return res, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// chooseWorkdir picks where cache, journal and file-cache files live.
// tmpfs is the default because the journaled WRITE is otherwise 94%
// fsync on the sandbox's ext4 and swings ±20% run to run; the flush
// policy is unchanged (fsync is still issued), only the device is
// taken out of the end-to-end numbers. cache.put_dirty_disk_us reports
// the device separately.
func chooseWorkdir(flagDir string) (dir, fsName string, err error) {
	candidates := []string{flagDir}
	if flagDir == "" {
		candidates = []string{"/dev/shm", filepath.Join(".bench_build", "work")}
	}
	for _, base := range candidates {
		if err = os.MkdirAll(base, 0o755); err != nil {
			continue
		}
		var st syscall.Statfs_t
		if err = syscall.Statfs(base, &st); err != nil {
			continue
		}
		// The largest workload keeps 128 MiB of cache banks plus a
		// 96 MiB journal; a container's default 64 MiB /dev/shm would
		// fail mid-run.
		if free := st.Bavail * uint64(st.Bsize); free < 1<<30 {
			err = fmt.Errorf("%s has only %d MiB free", base, free>>20)
			continue
		}
		if dir, err = os.MkdirTemp(base, "gvfs-benchmark-"); err == nil {
			return dir, fsTypeName(st), nil
		}
	}
	return "", "", fmt.Errorf("no usable work directory: %w", err)
}

func fsTypeName(st syscall.Statfs_t) string {
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitSHA is the revision the binary was built from, when the go tool
// could stamp it (a checkout that is not a git repository cannot).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
