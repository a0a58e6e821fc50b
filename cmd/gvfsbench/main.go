// Command gvfsbench regenerates the paper's tables and figures. Each
// experiment assembles the required topology (image server, proxy
// chain, emulated WAN/LAN links) in-process, runs the workloads, and
// prints the same rows/series the paper reports.
//
// Usage:
//
//	gvfsbench -experiment all -scale 64
//	gvfsbench -experiment fig4 -scale 16 -v
//
// gvfsbench -h lists the experiments.
// Data sizes and compute times are the paper's divided by -scale;
// network latency and bandwidth always use the paper's calibrated
// values, so measured seconds × scale estimate paper-scale seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gvfs/internal/bench"
)

// experiment is one -experiment name and the runner it selects.
type experiment struct {
	name string
	run  func(bench.Options) (*bench.Table, error)
}

// experiments is every experiment, in the order "all" runs them.
var experiments = []experiment{
	{"fig3", bench.Options.RunFig3},
	{"fig4", bench.Options.RunFig4},
	{"fig5", bench.Options.RunFig5},
	{"fig6", bench.Options.RunFig6},
	{"table1", bench.Options.RunTable1},
	{"zerofilter", bench.Options.RunZeroFilter},
	{"persistent", bench.Options.RunPersistentVM},
	{"ablation-writepolicy", bench.Options.RunAblationWritePolicy},
	{"ablation-metadata", bench.Options.RunAblationMetadata},
	{"ablation-geometry", bench.Options.RunAblationCacheGeometry},
	{"ablation-tunnel", bench.Options.RunAblationTunnel},
	{"ablation-readahead", bench.Options.RunAblationReadAhead},
	{"crash", bench.Options.RunCrash},
	{"noisy", bench.Options.RunNoisy},
	{"dedup", bench.Options.RunDedup},
	{"mrc", bench.Options.RunMrc},
	{"failover", bench.Options.RunFailover},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	experimentFlag := flag.String("experiment", "all",
		"comma-separated experiments: "+strings.Join(names, "|")+"|all")
	scale := flag.Float64("scale", 64, "divide data sizes and compute times by this factor")
	verbose := flag.Bool("v", false, "log progress to stderr")
	noEncrypt := flag.Bool("no-encrypt", false, "disable inter-proxy tunnels")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	results := flag.String("results", "", "directory receiving BENCH_*.json reports")
	flag.Parse()

	o := bench.Options{Scale: *scale, Verbose: *verbose, NoEncrypt: *noEncrypt, ResultsDir: *results}
	selected := experiments
	if *experimentFlag != "all" {
		selected = nil
		for _, name := range strings.Split(*experimentFlag, ",") {
			i := slices.Index(names, name)
			if i < 0 {
				fmt.Fprintf(os.Stderr, "gvfsbench: unknown experiment %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, experiments[i])
		}
	}
	for _, e := range selected {
		t0 := time.Now()
		table, err := e.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvfsbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(table, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "gvfsbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(blob))
		} else {
			table.Print(os.Stdout)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "bench: %s took %v\n", e.name, time.Since(t0))
		}
	}
}
