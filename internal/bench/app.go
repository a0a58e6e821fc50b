package bench

import (
	"fmt"
	"path"
	"time"

	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/vm"
	"gvfs/internal/workload"
)

// appScenarios are the four §4.2 storage configurations.
var appScenarios = []Scenario{Local, LAN, WAN, WANC}

// benchVMSpec is the §4.2 VM: 512 MB RAM, 2 GB plain-mode disk, Red
// Hat 7.3 with the benchmark applications installed (scaled). The disk
// is floored at twice the kernel tree, the largest install: at extreme
// scale factors every tiny file still costs a block, and the build
// writes its outputs beside the sources.
func (o Options) benchVMSpec() vm.Spec {
	var kernel uint64
	for _, f := range workload.KernelInstall(workload.Params{Scale: o.scale()}) {
		kernel += (f.Size + 8191) &^ 8191
	}
	return vm.Spec{
		Name:        "rh73",
		MemoryBytes: uint64(512 << 20 / o.scale()),
		DiskBytes:   max(uint64(2<<30/o.scale()), 2*kernel),
		Seed:        7,
	}
}

// runApp starts a scenario over a fresh VM image (cold caches, as the
// paper's un-mount/re-mount setup) and executes the workload named by
// run. If warmRuns > 1 the workload repeats without cache flushing and
// all reports are returned (kernel compilation's cold/warm pair). after,
// when set, runs on the chain once the workload is done.
func (o Options) runApp(s Scenario, installs []workload.FileSpec,
	run func(*workload.GuestFS, workload.Params) (*workload.Report, error),
	warmRuns int, after func(*stack.Chain) error) ([]*workload.Report, error) {

	spec := o.benchVMSpec()
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		return nil, err
	}
	c, err := o.start(o.scenario(s, fs))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	disk, err := c.Session().Open(path.Join("/vm", spec.DiskFile()))
	if err != nil {
		return nil, err
	}
	guest, err := workload.NewGuestFS(disk, spec.DiskBytes, c.Session().BlockSize(), installs)
	if err != nil {
		return nil, err
	}
	params := workload.Params{Scale: o.scale()}
	var reports []*workload.Report
	for i := 0; i < warmRuns; i++ {
		rep, err := run(guest, params)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", rep.Workload, s, err)
		}
		reports = append(reports, rep)
	}
	if after != nil {
		err = after(c)
	}
	return reports, err
}

// RunFig3 regenerates Figure 3: SPECseis execution times per phase
// across the four scenarios.
func (o Options) RunFig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "SPECseis benchmark execution times (seconds) per phase",
		Scale:   o.scale(),
		Columns: []string{"Phase 1", "Phase 2", "Phase 3", "Phase 4", "Total"},
	}
	params := workload.Params{Scale: o.scale()}
	for _, s := range appScenarios {
		o.logf("fig3: scenario %s", s)
		reports, err := o.runApp(s, workload.SPECseisInstall(params), workload.SPECseis, 1, nil)
		if err != nil {
			return nil, err
		}
		rep := reports[0]
		t.AddRow(string(s),
			rep.Phase("phase1"), rep.Phase("phase2"), rep.Phase("phase3"),
			rep.Phase("phase4"), rep.Total)
	}
	o.annotateFig3(t)
	return t, nil
}

func (o Options) annotateFig3(t *Table) {
	wan, ok1 := t.Value(string(WAN), "Phase 1")
	wanc, ok2 := t.Value(string(WANC), "Phase 1")
	if ok1 && ok2 && wanc > 0 {
		t.AddNote("phase 1 WAN+C speedup over WAN: %.2fx (paper: 2.1x)", wan/wanc)
	}
	wanT, ok1 := t.Value(string(WAN), "Total")
	wancT, ok2 := t.Value(string(WANC), "Total")
	if ok1 && ok2 && wanT > 0 {
		t.AddNote("total time reduction WAN -> WAN+C: %.0f%% (paper: 33%%)", (wanT-wancT)/wanT*100)
	}
}

// RunFig4 regenerates Figure 4: LaTeX benchmark first-iteration,
// steady-state and total times, plus the in-text full-state transfer
// and flush baselines.
func (o Options) RunFig4() (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "LaTeX benchmark execution times (seconds)",
		Scale:   o.scale(),
		Columns: []string{"First iter", "Mean 2-20", "Total"},
	}
	params := workload.Params{Scale: o.scale()}
	for _, s := range appScenarios {
		o.logf("fig4: scenario %s", s)
		var after func(*stack.Chain) error
		switch s {
		case WAN:
			// Baseline: downloading the entire VM state at session
			// start (paper: 2818 s) and uploading it back (4633 s).
			after = func(c *stack.Chain) error {
				if d, err := o.fullStateTransfer(c.FS, false); err == nil {
					t.AddNote("full VM state download over WAN: %.2f s (paper: 2818 s)", d.Seconds())
				}
				if d, err := o.fullStateTransfer(c.FS, true); err == nil {
					t.AddNote("full VM state upload over WAN: %.2f s (paper: 4633 s)", d.Seconds())
				}
				return nil
			}
		case WANC:
			// Write-back flush of the dirty blocks (paper: ~160 s).
			after = func(c *stack.Chain) error {
				d, err := timeIt(c.Hop().Proxy.WriteBack)
				t.AddNote("flush of cached dirty blocks after session: %.2f s (paper: ~160 s)", d.Seconds())
				return err
			}
		}
		reports, err := o.runApp(s, workload.LaTeXInstall(params), workload.LaTeX, 1, after)
		if err != nil {
			return nil, err
		}
		rep := reports[0]
		t.AddRow(string(s), workload.FirstIteration(rep), workload.MeanOfRest(rep), rep.Total)
	}
	o.annotateFig4(t)
	return t, nil
}

func (o Options) annotateFig4(t *Table) {
	wan, _ := t.Value(string(WAN), "Mean 2-20")
	wanc, _ := t.Value(string(WANC), "Mean 2-20")
	local, _ := t.Value(string(Local), "Mean 2-20")
	if wanc > 0 && local > 0 {
		t.AddNote("steady-state WAN+C vs Local: %+.0f%% (paper: +8%%)", (wanc-local)/local*100)
	}
	if wan > 0 && wanc > 0 {
		t.AddNote("steady-state WAN+C vs WAN: %.0f%% faster (paper: 54%%)", (wan-wanc)/wan*100)
	}
}

// fullStateTransfer times moving the whole VM state across the WAN,
// uncompressed (the paper's full download/upload baseline). Like Fig.
// 6's SCP baseline it is a plain copy over the plain file channel of its
// own image server, not the deployment's tunnelled one: the tunnel sends
// zero runs as lengths (DESIGN.md §2.1), which would make this `scp -C` —
// of a VM state that is mostly zeros — where the paper copied every byte.
func (o Options) fullStateTransfer(fs *memfs.FS, upload bool) (time.Duration, error) {
	spec := o.benchVMSpec()
	wan := simnet.NewLink(simnet.WAN())
	c, err := o.start(stack.ChainSpec{FS: fs, Link: wan, NoSession: true})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	// The listener shapes the server->client direction; an upload dials
	// through the link for the other one.
	dial := stack.Dialer(c.Server.FileChanAddr(), nil, nil)
	if upload {
		dial = stack.Dialer(c.Server.FileChanAddr(), wan, nil)
	}
	return timeIt(func() error {
		conn, err := dial()
		if err != nil {
			return err
		}
		defer conn.Close()
		if upload {
			return uploadZeros(conn, "/vm/upload.img", spec.MemoryBytes+spec.DiskBytes)
		}
		for _, f := range []string{spec.MemStateFile(), spec.DiskFile()} {
			if _, err := filechan.Copy(conn, path.Join("/vm", f)); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunFig5 regenerates Figure 5: kernel compilation per-phase times for
// two consecutive runs (cold, then warm caches).
func (o Options) RunFig5() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Kernel compilation times (seconds), runs 1 (cold) and 2 (warm)",
		Scale:   o.scale(),
		Columns: []string{"dep", "bzImage", "modules", "mod_install", "Total"},
	}
	params := workload.Params{Scale: o.scale()}
	for _, s := range appScenarios {
		o.logf("fig5: scenario %s", s)
		reports, err := o.runApp(s, workload.KernelInstall(params), workload.KernelCompile, 2, nil)
		if err != nil {
			return nil, err
		}
		for i, rep := range reports {
			t.AddRow(fmt.Sprintf("%s run%d", s, i+1),
				rep.Phase("make dep"), rep.Phase("make bzImage"),
				rep.Phase("make modules"), rep.Phase("make modules_install"), rep.Total)
		}
	}
	o.annotateFig5(t)
	return t, nil
}

func (o Options) annotateFig5(t *Table) {
	local1, _ := t.Value("Local run1", "Total")
	wanc1, _ := t.Value("WAN+C run1", "Total")
	local2, _ := t.Value("Local run2", "Total")
	wanc2, _ := t.Value("WAN+C run2", "Total")
	wan2, _ := t.Value("WAN run2", "Total")
	if local1 > 0 {
		t.AddNote("cold WAN+C overhead vs Local: %+.0f%% (paper: +84%%)", (wanc1-local1)/local1*100)
	}
	if local2 > 0 {
		t.AddNote("warm WAN+C overhead vs Local: %+.0f%% (paper: +9%%)", (wanc2-local2)/local2*100)
	}
	if wan2 > 0 && wanc2 > 0 {
		t.AddNote("warm WAN+C vs WAN: %.0f%% faster (paper: >30%%)", (wan2-wanc2)/wan2*100)
	}
}
