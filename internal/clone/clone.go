// Package clone implements the VM cloning workflow of the paper's
// §3.2.3 and §4.3: instantiating a new VM from a "golden" image stored
// on a (possibly remote) image server. The cloning scheme is exactly
// the benchmarked one:
//
//  1. copy the VM configuration file,
//  2. access the VM memory state file (the client proxy's meta-data
//     handling turns this into one compressed file-channel transfer),
//  3. build symbolic links to the virtual disk files (no disk copy —
//     disk blocks arrive on demand through the proxy cache),
//  4. configure the cloned VM with user-specific information,
//  5. resume the new VM.
//
// The package also provides the two baselines the paper compares
// against: full-image SCP copying (1127 s in the paper) and resuming
// directly from a plain NFS mount with no GVFS support (2060 s).
package clone

import (
	"fmt"
	"net"
	"path"
	"strings"
	"sync"
	"time"

	gvfs "gvfs"
	"gvfs/internal/filechan"
	"gvfs/internal/vm"
)

// Result reports one completed cloning.
type Result struct {
	Name     string
	Dir      string
	Duration time.Duration
	VM       *vm.VM
}

// Options parameterize Clone.
type Options struct {
	// GoldenDir is the golden image's directory on the image server.
	GoldenDir string
	// CloneDir is the directory for the clone's own files.
	CloneDir string
	// Name is the image base name (Spec.Name).
	Name string
	// User customizes the clone ("configuring it with user specific
	// information").
	User string
	// KeepVM leaves the resumed VM open in the Result.
	KeepVM bool
}

// Clone performs the full cloning workflow over sess and returns
// timing. The heavy lifting — compressed memory-state transfer,
// on-demand disk blocks — happens inside the GVFS proxy chain,
// transparently to this middleware-level code, exactly as the paper
// stresses ("the support from GVFS is on-demand, and transparent to
// user and VM monitor").
func Clone(sess *gvfs.Session, opts Options) (*Result, error) {
	start := time.Now()

	// 1. Copy the VM configuration file.
	cfg, err := sess.ReadFile(path.Join(opts.GoldenDir, opts.Name+".vmx"))
	if err != nil {
		return nil, fmt.Errorf("clone: read golden config: %w", err)
	}
	if err := sess.MkdirAll(opts.CloneDir); err != nil {
		return nil, fmt.Errorf("clone: mkdir: %w", err)
	}

	// 4 (part). Configure the clone with user-specific information.
	patched := configure(string(cfg), opts.User, opts.GoldenDir)
	if err := sess.WriteFile(path.Join(opts.CloneDir, opts.Name+".vmx"), []byte(patched)); err != nil {
		return nil, fmt.Errorf("clone: write config: %w", err)
	}

	// 3. Symbolic links to the virtual disk files.
	diskLink := path.Join(opts.CloneDir, opts.Name+".vmdk")
	if err := sess.Symlink(path.Join(opts.GoldenDir, opts.Name+".vmdk"), diskLink); err != nil {
		return nil, fmt.Errorf("clone: symlink disk: %w", err)
	}

	// 2 + 5. Resume the new VM: the monitor reads the entire memory
	// state (from the golden dir — served by the file channel when
	// meta-data is present) and opens the linked disk.
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume(opts.CloneDir, opts.Name)
	if err != nil {
		return nil, fmt.Errorf("clone: resume: %w", err)
	}

	res := &Result{Name: opts.Name, Dir: opts.CloneDir, Duration: time.Since(start), VM: machine}
	if !opts.KeepVM {
		machine.Close()
		res.VM = nil
	}
	return res, nil
}

// configure rewrites the golden configuration for the clone's user and
// points the checkpoint state at the golden directory (the clone does
// not get its own copy; modifications go to redo logs).
func configure(cfg, user, goldenDir string) string {
	var out []string
	for _, line := range strings.Split(cfg, "\n") {
		if rest, ok := strings.CutPrefix(line, "checkpoint.vmState = "); ok {
			name := strings.Trim(rest, "\"")
			line = fmt.Sprintf("checkpoint.vmState = %q", path.Join(goldenDir, name))
		}
		out = append(out, line)
	}
	if user != "" {
		out = append(out, fmt.Sprintf("guestinfo.gridUser = %q", user))
	}
	return strings.Join(out, "\n")
}

// Sequential clones each (goldenDir, cloneDir) pair in order over one
// session, as in the paper's WAN-S1/S2/S3 scenarios, returning
// per-clone results.
func Sequential(sess *gvfs.Session, opts []Options) ([]*Result, error) {
	results := make([]*Result, 0, len(opts))
	for _, o := range opts {
		r, err := Clone(sess, o)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Parallel clones one image per session concurrently — the paper's
// WAN-P scenario, where eight compute servers share a single image
// server and each client proxy spawns its own file-based data channel.
func Parallel(sessions []*gvfs.Session, opts []Options) ([]*Result, error) {
	if len(sessions) != len(opts) {
		return nil, fmt.Errorf("clone: %d sessions for %d clones", len(sessions), len(opts))
	}
	results := make([]*Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Clone(sessions[i], opts[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// SCPCopy is the full-file-copy baseline: transfer every image file in
// its entirety over a secure channel before instantiation, as scp
// would. dial must reach the image server's file-channel service; the
// transfer is uncompressed, matching plain scp of an uncompressible
// disk image. It returns the total bytes moved.
func SCPCopy(dial func() (net.Conn, error), goldenDir, name string) (uint64, time.Duration, error) {
	start := time.Now()
	conn, err := dial()
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	var total uint64
	for _, file := range []string{name + ".vmx", name + ".vmss", name + ".vmdk"} {
		n, err := filechan.Copy(conn, path.Join(goldenDir, file))
		if err != nil {
			return total, time.Since(start), fmt.Errorf("clone: scp %s: %w", file, err)
		}
		total += n
	}
	return total, time.Since(start), nil
}

// PlainNFSResume is the non-enhanced baseline: resume the VM through a
// session with no proxy caching and no meta-data support, so the
// memory state arrives block by block over the WAN (2060 s in the
// paper).
func PlainNFSResume(sess *gvfs.Session, goldenDir, name string) (time.Duration, error) {
	start := time.Now()
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume(goldenDir, name)
	if err != nil {
		return 0, err
	}
	machine.Close()
	return time.Since(start), nil
}
