// Package vm models the virtual machines of the paper's evaluation:
// VMware GSX-style hosted VMs whose state lives in regular files — a
// .vmx configuration file, a .vmss suspended memory state, and a .vmdk
// plain virtual disk — all accessed through a (distributed) file
// system. The Monitor type simulates the VM monitor's file access
// behaviour, which is what drives every experiment:
//
//   - resuming a VM reads the configuration and the *entire* memory
//     state file (hundreds of MBs, largely zero-filled and highly
//     compressible);
//   - running applications issues block I/O against the virtual disk,
//     touching a working set far smaller than the disk (<10%);
//   - suspending writes the memory state back;
//   - non-persistent VMs write modifications to redo logs instead of
//     the (shared, golden) virtual disk.
package vm

import (
	"fmt"
	"io"
	"math/rand"
	"path"
	"strings"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
)

// Spec describes a VM image.
type Spec struct {
	// Name is the image's base name; files are <Name>.vmx/.vmss/.vmdk.
	Name string
	// MemoryBytes is the memory state size (paper: 320 MB / 512 MB).
	MemoryBytes uint64
	// DiskBytes is the virtual disk size (paper: 1.6 GB / 2 GB).
	DiskBytes uint64
	// ZeroPageFraction is the fraction of all-zero memory pages
	// (paper: 60452/65750 ≈ 0.92 for a post-boot RedHat 7.3 VM).
	ZeroPageFraction float64
	// Seed makes image contents deterministic.
	Seed int64
}

// DefaultZeroPageFraction matches the paper's post-boot measurement.
const DefaultZeroPageFraction = float64(60452) / float64(65750)

// PageSize is the guest page size used when generating memory state.
const PageSize = 4096

// ConfigFile, MemStateFile and DiskFile name the image files.
func (s Spec) ConfigFile() string { return s.Name + ".vmx" }

// MemStateFile returns the memory state filename.
func (s Spec) MemStateFile() string { return s.Name + ".vmss" }

// DiskFile returns the virtual disk filename.
func (s Spec) DiskFile() string { return s.Name + ".vmdk" }

// GenerateMemState builds a deterministic suspended-memory image:
// ZeroPageFraction of the pages are zero-filled; the rest carry
// moderately compressible content (kernel text, page tables, file
// cache — gzip shrinks such pages roughly 3x).
func (s Spec) GenerateMemState() []byte {
	frac := s.ZeroPageFraction
	if frac <= 0 {
		frac = DefaultZeroPageFraction
	}
	rng := rand.New(rand.NewSource(s.Seed))
	data := make([]byte, s.MemoryBytes)
	words := []string{"kernel", "page", "inode", "buffer", "socket", "task_struct"}
	// Zero and non-zero pages cluster in runs, as in real post-boot
	// memory (allocated regions are contiguous). A two-state Markov
	// walk with a mean non-zero run of 4 pages keeps the stationary
	// zero fraction at frac while making multi-page NFS blocks mostly
	// all-zero or all-used, matching the paper's 92% filter rate for
	// 8 KB reads.
	const nonZeroPersist = 0.75 // mean non-zero run: 4 pages
	zeroPersist := 1.0
	if frac < 1 {
		zeroPersist = 1 - (1-frac)*(1-nonZeroPersist)/frac
	}
	inZero := rng.Float64() < frac
	for off := 0; off+PageSize <= len(data); off += PageSize {
		if inZero {
			if rng.Float64() >= zeroPersist {
				inZero = false
			}
		} else {
			if rng.Float64() >= nonZeroPersist {
				inZero = true
			}
		}
		if inZero {
			continue // zero page
		}
		page := data[off : off+PageSize]
		// Low-entropy fill: repeated tokens plus sparse random bytes.
		w := words[rng.Intn(len(words))]
		for i := 0; i < len(page); i += len(w) {
			copy(page[i:], w)
		}
		for i := 0; i < 64; i++ {
			page[rng.Intn(len(page))] = byte(rng.Intn(256))
		}
	}
	return data
}

// GenerateDisk builds a deterministic virtual disk image. Most of a
// freshly-installed plain-mode disk is zero; installed software and
// data occupy deterministic extents at the front.
func (s Spec) GenerateDisk() []byte {
	rng := rand.New(rand.NewSource(s.Seed + 1))
	data := make([]byte, s.DiskBytes)
	// Populate the first ~25% with filesystem-like content.
	used := len(data) / 4
	for off := 0; off+PageSize <= used; off += PageSize {
		page := data[off : off+PageSize]
		for i := 0; i < len(page); i += 16 {
			copy(page[i:], "/usr/lib/libgrid")
		}
		for i := 0; i < 32; i++ {
			page[rng.Intn(len(page))] = byte(rng.Intn(256))
		}
	}
	return data
}

// ConfigContents builds the .vmx-style configuration text.
func (s Spec) ConfigContents() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config.version = \"8\"\n")
	fmt.Fprintf(&b, "displayName = %q\n", s.Name)
	fmt.Fprintf(&b, "memsize = \"%d\"\n", s.MemoryBytes>>20)
	fmt.Fprintf(&b, "ide0:0.fileName = %q\n", s.DiskFile())
	fmt.Fprintf(&b, "checkpoint.vmState = %q\n", s.MemStateFile())
	return b.String()
}

// InstallImage writes a complete golden image into dir on the image
// server's filesystem, including the middleware-generated meta-data
// for the memory state (zero map + file-channel actions).
func InstallImage(fs *memfs.FS, dir string, spec Spec) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	if err := fs.WriteFile(path.Join(dir, spec.ConfigFile()), []byte(spec.ConfigContents())); err != nil {
		return err
	}
	mem := spec.GenerateMemState()
	if err := fs.WriteFile(path.Join(dir, spec.MemStateFile()), mem); err != nil {
		return err
	}
	m := meta.ForWholeFile(mem, 8192)
	blob, err := m.Encode()
	if err != nil {
		return err
	}
	if err := fs.WriteFile(path.Join(dir, meta.NameFor(spec.MemStateFile())), blob); err != nil {
		return err
	}
	disk := spec.GenerateDisk()
	return fs.WriteFile(path.Join(dir, spec.DiskFile()), disk)
}

// Monitor simulates the VM monitor on a compute server. All its file
// access goes through a GVFS session, as VMware's does through the
// kernel NFS mount in the paper.
type Monitor struct {
	Session *gvfs.Session
	// ReadSize is the transfer size used when reading memory state
	// (default: the session block size).
	ReadSize uint32
}

// NewMonitor returns a Monitor using sess.
func NewMonitor(sess *gvfs.Session) *Monitor {
	return &Monitor{Session: sess, ReadSize: sess.BlockSize()}
}

// VM is a resumed (running) virtual machine.
type VM struct {
	Name    string
	Dir     string
	Config  string
	Disk    *gvfs.File
	monitor *Monitor
	redo    *gvfs.File
}

// Resume instantiates the VM whose files are in dir: it reads the
// configuration, reads the ENTIRE memory state (the VMware behaviour
// the paper's meta-data handling accelerates), resolves the virtual
// disk (following one level of symlink, as cloned VMs link to golden
// disks) and opens it.
func (m *Monitor) Resume(dir, name string) (*VM, error) { return m.Finish(dir, name, "", nil) }

// ReadState is the first half of a resume: it reads, in full, the memory
// state that cfg — the configuration of the VM name in dir — names, and
// returns the state's path. A caller that has the configuration before
// the VM's own files are in place can run it early, and Finish the resume
// once they are.
func (m *Monitor) ReadState(dir, name, cfg string) (string, error) {
	memPath, _ := statePaths(dir, name, cfg)
	if err := m.readAll(memPath); err != nil {
		return "", fmt.Errorf("vm: read memory state: %w", err)
	}
	return memPath, nil
}

// Finish is the rest of a resume whose memory state at read has been read
// by ReadState ("" for none): it reads the VM's own configuration, reads
// the memory state again only if that names another path, resolves the
// disk and opens it. The VM takes redo, when set, as its redo log; on an
// error redo stays the caller's.
func (m *Monitor) Finish(dir, name, read string, redo *gvfs.File) (*VM, error) {
	cfgBytes, err := m.Session.ReadFile(path.Join(dir, name+".vmx"))
	if err != nil {
		return nil, fmt.Errorf("vm: read config: %w", err)
	}
	memPath, diskPath := statePaths(dir, name, string(cfgBytes))
	if memPath != read {
		if err := m.readAll(memPath); err != nil {
			return nil, fmt.Errorf("vm: read memory state: %w", err)
		}
	}
	diskPath, err = m.resolveLink(diskPath)
	if err != nil {
		return nil, err
	}
	disk, err := m.Session.Open(diskPath)
	if err != nil {
		return nil, fmt.Errorf("vm: open disk: %w", err)
	}
	return &VM{Name: name, Dir: dir, Config: string(cfgBytes), Disk: disk, monitor: m, redo: redo}, nil
}

// statePaths extracts the memory-state and disk paths from the config.
func statePaths(dir, name, cfg string) (memPath, diskPath string) {
	memPath = path.Join(dir, name+".vmss")
	diskPath = path.Join(dir, name+".vmdk")
	resolve := func(v string) string {
		v = strings.Trim(v, "\"")
		if strings.HasPrefix(v, "/") {
			return v // absolute guest-visible path (e.g. golden dir)
		}
		return path.Join(dir, v)
	}
	for _, line := range strings.Split(cfg, "\n") {
		if rest, ok := strings.CutPrefix(line, "checkpoint.vmState = "); ok {
			memPath = resolve(rest)
		}
		if rest, ok := strings.CutPrefix(line, "ide0:0.fileName = "); ok {
			diskPath = resolve(rest)
		}
	}
	return memPath, diskPath
}

// resolveLink follows a symlink once (cloned disks link to the golden
// image's disk files).
func (m *Monitor) resolveLink(p string) (string, error) {
	attr, err := m.Session.Stat(p)
	if err != nil {
		return "", err
	}
	if attr.Type != 5 { // nfs3.TypeLnk
		return p, nil
	}
	target, err := m.Session.ReadLink(p)
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(target, "/") {
		target = path.Join(path.Dir(p), target)
	}
	return target, nil
}

// readAll sequentially reads an entire file, as VMware does with the
// memory state on resume.
func (m *Monitor) readAll(p string) error {
	f, err := m.Session.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, m.ReadSize)
	var off int64
	for {
		n, err := f.ReadAt(buf, off)
		off += int64(n)
		if err == io.EOF || (err == nil && n == 0) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Suspend checkpoints the VM: the memory state is written back in
// full (persistent VMs) to the VM's own directory.
func (m *Monitor) Suspend(v *VM, memState []byte) error {
	if err := m.Session.WriteFile(path.Join(v.Dir, v.Name+".vmss"), memState); err != nil {
		return err
	}
	return v.Disk.Sync()
}

// OpenRedoLog returns the VM's redo log for non-persistent disk
// modifications. A VM that clone.Clone resumed has one already, empty,
// made with its config; otherwise the log is created on the first call,
// truncating any log already there.
func (v *VM) OpenRedoLog() (*gvfs.File, error) {
	if v.redo != nil {
		return v.redo, nil
	}
	f, err := v.monitor.Session.Create(path.Join(v.Dir, v.Name+".redo"))
	if err != nil {
		return nil, err
	}
	v.redo = f
	return f, nil
}

// Close releases the VM's open files.
func (v *VM) Close() error {
	if v.redo != nil {
		v.redo.Close()
	}
	return v.Disk.Close()
}
