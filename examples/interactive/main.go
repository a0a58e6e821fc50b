// Interactive session latency: the paper's LaTeX scenario. A user's
// "virtual workspace" VM sits on a WAN image server; the example runs
// the 20-iteration document-processing workload twice — once over a
// plain forwarding proxy (the WAN scenario) and once with the
// client-side write-back disk cache (WAN+C) — and prints per-iteration
// response times, showing the cache bringing steady-state latency down
// to near-local levels.
//
//	go run ./examples/interactive
package main

import (
	"fmt"
	"log"
	"path"

	"gvfs/internal/bench"
	"gvfs/internal/memfs"
	"gvfs/internal/vm"
	"gvfs/internal/workload"
)

func main() {
	const scale = 256 // 1/256 of paper-scale sizes and compute
	opts := bench.Options{Scale: scale}

	fmt.Printf("LaTeX interactive benchmark (scale 1/%d, 20 iterations)\n\n", scale)
	fmt.Printf("%-8s %12s %12s\n", "iter", "WAN (s)", "WAN+C (s)")

	reports := map[bench.Scenario]*workload.Report{}
	for _, scenario := range []bench.Scenario{bench.WAN, bench.WANC} {
		rep, err := runLaTeX(opts, scenario)
		if err != nil {
			log.Fatal(err)
		}
		reports[scenario] = rep
	}
	wan, wanc := reports[bench.WAN], reports[bench.WANC]
	for i := range wan.Phases {
		fmt.Printf("%-8s %12.3f %12.3f\n", wan.Phases[i].Name,
			wan.Phases[i].Duration.Seconds(), wanc.Phases[i].Duration.Seconds())
	}
	fmt.Printf("\nfirst iteration:  WAN %.2f s   WAN+C %.2f s   (startup: cold caches dominate both)\n",
		workload.FirstIteration(wan).Seconds(), workload.FirstIteration(wanc).Seconds())
	fmt.Printf("mean of 2..20:    WAN %.3f s  WAN+C %.3f s  (the proxy cache absorbs the WAN)\n",
		workload.MeanOfRest(wan).Seconds(), workload.MeanOfRest(wanc).Seconds())
}

// runLaTeX builds one scenario and runs the workload, mirroring the
// harness's Figure 4 driver in miniature.
func runLaTeX(o bench.Options, s bench.Scenario) (*workload.Report, error) {
	params := workload.Params{Scale: 256}
	spec := vm.Spec{
		Name:        "workspace",
		MemoryBytes: 512 << 20 / 256,
		DiskBytes:   2 << 30 / 256,
		Seed:        3,
	}
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		return nil, err
	}
	dep, err := o.Deploy(fs, s)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	disk, err := dep.Session().Open(path.Join("/vm", spec.DiskFile()))
	if err != nil {
		return nil, err
	}
	guest, err := workload.NewGuestFS(disk, spec.DiskBytes, dep.Session().BlockSize(),
		workload.LaTeXInstall(params))
	if err != nil {
		return nil, err
	}
	return workload.LaTeX(guest, params)
}
