package bench

import (
	"time"

	"gvfs/internal/memfs"
	"gvfs/internal/vm"
	"gvfs/internal/workload"
)

// RunPersistentVM exercises the paper's §3.2.3 first deployment
// scenario, which has no figure of its own: a Grid user owns a
// dedicated VM with a persistent virtual disk on the image server. The
// session resumes the VM across the WAN, runs an interactive workload,
// suspends, and the middleware settles the session. The table compares
// plain WAN NFS against WAN+C (write-back proxy with meta-data
// support) on each phase the section calls out: instantiation
// (meta-data restore), run-time execution (cached virtual disk), and
// checkpointing (write-back hiding suspend latency).
func (o Options) RunPersistentVM() (*Table, error) {
	t := &Table{
		ID:      "persistent",
		Title:   "Persistent-VM session (seconds): resume, work, suspend, settle",
		Scale:   o.scale(),
		Columns: []string{"resume", "workload", "suspend", "settle"},
	}
	spec := vm.Spec{
		Name:        "rh73",
		MemoryBytes: uint64(320 << 20 / o.scale()),
		DiskBytes:   uint64(16 << 27 / o.scale()),
		Seed:        21,
	}
	for _, s := range []Scenario{WAN, WANC} {
		row, err := o.persistentSession(s, spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(s), row...)
	}
	wanSusp, _ := t.Value(string(WAN), "suspend")
	wancSusp, _ := t.Value(string(WANC), "suspend")
	if wancSusp > 0 {
		t.AddNote("write-back hides %.0fx of perceived suspend latency", wanSusp/wancSusp)
	}
	wanRes, _ := t.Value(string(WAN), "resume")
	wancRes, _ := t.Value(string(WANC), "resume")
	if wancRes > 0 {
		t.AddNote("meta-data restore speeds resume %.1fx", wanRes/wancRes)
	}
	return t, nil
}

// persistentSession runs one persistent-VM session over scenario s and
// times its resume, work, suspend and settle. Under WAN+C the client
// proxy also has the file channel.
func (o Options) persistentSession(s Scenario, spec vm.Spec) ([]time.Duration, error) {
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		return nil, err
	}
	chain := o.scenario(s, fs)
	chain.FileChan = s == WANC
	c, err := o.start(chain)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	monitor := vm.NewMonitor(c.Session())

	resumeDur, err := timeIt(func() error {
		machine, err := monitor.Resume("/vm", "rh73")
		if err != nil {
			return err
		}
		return machine.Close()
	})
	if err != nil {
		return nil, err
	}

	// An interactive working session against the VM's disk.
	machine, err := monitor.Resume("/vm", "rh73")
	if err != nil {
		return nil, err
	}
	params := workload.Params{Scale: o.scale() * 4} // a short session
	guest, err := workload.NewGuestFS(machine.Disk, spec.DiskBytes,
		c.Session().BlockSize(), workload.LaTeXInstall(params))
	if err != nil {
		return nil, err
	}
	workDur, err := timeIt(func() error {
		_, err := workload.LaTeX(guest, params)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Suspend: the checkpointed memory state is written back
	// through the session ("modifications ... efficiently
	// reflected on the image server").
	newState := spec.GenerateMemState()
	suspendDur, err := timeIt(func() error {
		return monitor.Suspend(machine, newState)
	})
	machine.Close()
	if err != nil {
		return nil, err
	}

	// Settle: middleware-triggered propagation of dirty state,
	// "when the user is off-line or the session is idle".
	settleDur, err := timeIt(c.Hop().Proxy.WriteBack)
	return []time.Duration{resumeDur, workDur, suspendDur, settleDur}, err
}
