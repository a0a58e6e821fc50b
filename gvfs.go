// Package gvfs is the public API of this GVFS implementation — a
// reproduction of "Distributed File System Support for Virtual
// Machines in Grid Computing" (Zhao, Zhang, Figueiredo; HPDC 2004).
//
// A Session plays the role of an NFS mount on a compute server: it
// connects to a GVFS proxy (or directly to an NFS server), obtains the
// export root via the MOUNT protocol, and provides file access through
// a kernel-buffer-cache stand-in. All VM state access in the examples,
// benchmarks and the VM monitor simulator flows through this API, then
// through the proxy chain, exactly as the paper's Figure 2 describes:
//
//	application -> memory buffer (1) -> client proxy cache (3,4)
//	            -> tunneled RPC (5) -> server proxy (6) -> NFS server (7)
//
// The heavy lifting lives in the internal packages: internal/proxy
// (caching, meta-data, identity mapping), internal/cache (the
// block-based disk cache, which file-channel fetches fill too),
// internal/filechan (the file-based data channel), internal/nfs3 and
// internal/sunrpc (the protocol substrate), and internal/simnet (WAN
// emulation for experiments).
package gvfs

import (
	"errors"
	"fmt"
	"net"
	"path"
	"strings"
	"sync"
	"time"

	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/pagecache"
	"gvfs/internal/simnet"
	"gvfs/internal/sunrpc"
)

// DefaultBlockSize is the NFS transfer size used by Sessions: 8 KB,
// the preferred size advertised by the servers (protocol maximum is
// 32 KB).
const DefaultBlockSize = 8192

// SessionConfig describes how to establish a GVFS session.
type SessionConfig struct {
	// Addr is the address of the first hop (client proxy, or the NFS
	// server itself): a TCP address, or a pipe:N name on simnet's
	// in-memory network (see simnet.Dial). Ignored when Dial is set.
	Addr string
	// Dial, when set, produces the transport connection (e.g. through
	// a simnet link or tunnel).
	Dial func() (net.Conn, error)
	// Export is the directory to mount (MOUNT protocol dirpath).
	Export string
	// Cred is the RPC credential presented by this session's user.
	Cred sunrpc.OpaqueAuth
	// PageCachePages bounds the in-memory buffer cache emulating the
	// kernel NFS client's page cache. Zero disables it.
	PageCachePages int
	// BlockSize is the NFS read/write transfer size (default 8 KB).
	BlockSize uint32
	// CallTimeout bounds each RPC issued by the session (per-call
	// deadline). Zero means no deadline.
	CallTimeout time.Duration
	// MaxRetries enables transparent reconnection (with exponential
	// backoff) and retransmission of idempotent NFS calls after a
	// connection failure. Zero disables retries.
	MaxRetries int
	// Metrics, when set, is the obs registry the session publishes its
	// page-cache instruments into — pass the same registry used by a
	// proxy and obs.Snapshot() covers the whole chain. Nil disables
	// session metrics (and their time.Now() calls on the read path).
	Metrics *obs.Registry
}

// Session is a mounted GVFS file system. It is safe for concurrent use:
// calls from several goroutines go out over the one connection together,
// each waiting only for its own replies, as a kernel NFS client's
// processes share one mount. Calls that change the same name race as
// they would there.
type Session struct {
	rpc   *sunrpc.Client
	nfs   *nfs3.Client
	root  nfs3.FH
	bs    uint32
	pages *pagecache.Cache

	// metrics is nil unless SessionConfig.Metrics was set; readDur
	// holds the pre-resolved per-outcome read histograms.
	metrics *obs.Registry
	readDur map[string]*obs.Histogram

	mu       sync.Mutex
	dentries map[string]dentry  // path -> fh/attr cache
	files    map[*File]struct{} // files open in this session
}

type dentry struct {
	fh   nfs3.FH
	ftyp nfs3.FileType
}

// Mount establishes a session.
func Mount(cfg SessionConfig) (*Session, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.BlockSize > 32768 {
		return nil, fmt.Errorf("gvfs: block size %d exceeds the NFSv3 32 KB limit", cfg.BlockSize)
	}
	dial := cfg.Dial
	if dial == nil {
		addr := cfg.Addr
		dial = func() (net.Conn, error) { return simnet.Dial(addr, nil) }
	}
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("gvfs: dial: %w", err)
	}
	var rpc *sunrpc.Client
	if cfg.CallTimeout > 0 || cfg.MaxRetries > 0 {
		opts := sunrpc.ClientOptions{
			CallTimeout: cfg.CallTimeout,
			MaxRetries:  cfg.MaxRetries,
			Idempotent:  nfs3.RetrySafe,
		}
		if cfg.MaxRetries > 0 {
			opts.Redial = dial
		}
		rpc = sunrpc.NewClientWithOptions(conn, opts)
	} else {
		rpc = sunrpc.NewClient(conn)
	}
	export := cfg.Export
	if export == "" {
		export = "/"
	}
	root, err := mountd.Mount(rpc, cfg.Cred, export)
	if err != nil {
		rpc.Close()
		return nil, fmt.Errorf("gvfs: mount %s: %w", export, err)
	}
	s := &Session{
		rpc:      rpc,
		nfs:      nfs3.NewClient(rpc, cfg.Cred),
		root:     root,
		bs:       cfg.BlockSize,
		pages:    pagecache.New(cfg.PageCachePages),
		dentries: make(map[string]dentry),
		files:    make(map[*File]struct{}),
	}
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	return s, nil
}

// registerMetrics publishes the session's instruments: the files it has
// open, collection-time bridges over the page cache's own counters — a
// hit or a miss is one page a caller asked for — plus a per-outcome latency
// histogram whose two series have different units: "hit" is one page
// copied out of the buffer cache, "miss" is one READ RPC, which brings up
// to nfs3.MaxTransfer bytes (several pages).
func (s *Session) registerMetrics(reg *obs.Registry) {
	s.metrics = reg
	pages := s.pages
	reg.CounterFunc("gvfs_pagecache_hits_total", "Buffer-cache page hits.",
		func() uint64 { return pages.Stats().Hits })
	reg.CounterFunc("gvfs_pagecache_misses_total", "Buffer-cache page misses.",
		func() uint64 { return pages.Stats().Misses })
	reg.CounterFunc("gvfs_pagecache_evictions_total", "Buffer-cache page evictions.",
		func() uint64 { return pages.Stats().Evictions })
	reg.GaugeFunc("gvfs_session_open_files", "Files open in the session: opened or created and not yet closed.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.files))
		})
	hv := reg.HistogramVec("gvfs_pagecache_read_duration_seconds",
		"Session read latency by buffer-cache outcome: hit is one page served from the buffer cache, miss is one READ RPC of up to 32 KiB.", nil, "outcome")
	s.readDur = map[string]*obs.Histogram{
		"hit":  hv.With("hit"),
		"miss": hv.With("miss"),
	}
}

// observeRead records one page hit or one READ RPC when session metrics
// are enabled.
func (s *Session) observeRead(outcome string, start time.Time) {
	if h, ok := s.readDur[outcome]; ok {
		h.ObserveSince(start)
	}
}

// Metrics returns the registry the session publishes into, or nil when
// metrics were not enabled at Mount time.
func (s *Session) Metrics() *obs.Registry { return s.metrics }

// Close commits the dirty state of any files still open in this
// session, then tears down the connection. File.Close reports commit
// failures for explicitly closed files; Close extends the same
// guarantee to files the application left open, so an acknowledged
// write is never silently dropped at session teardown. The first
// commit error (then any transport-close error) is returned.
func (s *Session) Close() error {
	s.mu.Lock()
	open := make([]*File, 0, len(s.files))
	for f := range s.files {
		open = append(open, f)
	}
	s.mu.Unlock()
	var first error
	for _, f := range open {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.rpc.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// trackFile registers an open file so Session.Close can settle it.
func (s *Session) trackFile(f *File) {
	s.mu.Lock()
	s.files[f] = struct{}{}
	s.mu.Unlock()
}

// untrackFile removes a closed file from the registry.
func (s *Session) untrackFile(f *File) {
	s.mu.Lock()
	delete(s.files, f)
	s.mu.Unlock()
}

// Root returns the export root handle.
func (s *Session) Root() nfs3.FH { return s.root }

// NFS exposes the underlying protocol client for advanced callers.
func (s *Session) NFS() *nfs3.Client { return s.nfs }

// BlockSize returns the session's transfer size.
func (s *Session) BlockSize() uint32 { return s.bs }

// PageCacheStats reports buffer-cache effectiveness.
//
// Deprecated: the unified stats surface is SessionConfig.Metrics +
// obs.Snapshot(); this accessor remains for existing callers.
func (s *Session) PageCacheStats() pagecache.Stats { return s.pages.Stats() }

// DropCaches empties the in-memory buffer cache — the equivalent of
// the paper's un-mounting and re-mounting between cold-cache runs.
func (s *Session) DropCaches() {
	s.pages.InvalidateAll()
	s.mu.Lock()
	s.dentries = make(map[string]dentry)
	s.mu.Unlock()
}

func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// resolve walks p from the root, consulting the dentry cache for every
// prefix: only the components past the longest cached one are looked up.
func (s *Session) resolve(p string) (nfs3.FH, nfs3.FileType, error) {
	cur, ftyp, walked := s.root, nfs3.TypeDir, "/"
	for _, part := range splitPath(p) {
		walked = path.Join(walked, part)
		s.mu.Lock()
		d, ok := s.dentries[walked]
		s.mu.Unlock()
		if ok {
			cur, ftyp = d.fh, d.ftyp
			continue
		}
		fh, attr, err := s.nfs.Lookup(cur, part)
		if err != nil {
			return nil, 0, err
		}
		cur, ftyp = fh, nfs3.TypeReg
		if attr != nil {
			ftyp = attr.Type
		}
		s.mu.Lock()
		s.dentries[walked] = dentry{fh: cur, ftyp: ftyp}
		s.mu.Unlock()
	}
	return cur, ftyp, nil
}

func (s *Session) forgetDentry(p string) {
	clean := path.Clean("/" + p)
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.dentries {
		if key == clean || strings.HasPrefix(key, clean+"/") {
			delete(s.dentries, key)
		}
	}
}

// Stat returns the attributes of the object at p.
func (s *Session) Stat(p string) (nfs3.Fattr, error) {
	fh, _, err := s.resolve(p)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	return s.nfs.GetAttr(fh)
}

// Mkdir creates a directory.
func (s *Session) Mkdir(p string) error {
	dir, base, err := s.resolveParent(p)
	if err != nil {
		return err
	}
	fh, _, err := s.nfs.Mkdir(dir, base, nfs3.SetAttr{})
	if err == nil && fh != nil {
		s.mu.Lock()
		s.dentries[path.Clean("/"+p)] = dentry{fh: fh, ftyp: nfs3.TypeDir}
		s.mu.Unlock()
	}
	return err
}

// MkdirAll creates a directory and any missing parents. It sends MKDIR
// for p itself and climbs only when the parent turns out to be missing,
// so ancestors that exist cost a (cached) lookup, not a refused MKDIR. A
// directory that is already there — made earlier, or by a racing
// creator — is not an error.
func (s *Session) MkdirAll(p string) error {
	if len(splitPath(p)) == 0 {
		return nil
	}
	err := s.Mkdir(p)
	if nfs3.StatusOf(err) == nfs3.ErrNoEnt {
		if err = s.MkdirAll(path.Dir(path.Clean("/" + p))); err == nil {
			err = s.Mkdir(p)
		}
	}
	if nfs3.StatusOf(err) == nfs3.ErrExist {
		return nil
	}
	return err
}

// Remove unlinks the file at p.
func (s *Session) Remove(p string) error {
	dir, base, err := s.resolveParent(p)
	if err != nil {
		return err
	}
	if err := s.nfs.Remove(dir, base); err != nil {
		return err
	}
	s.forgetDentry(p)
	return nil
}

// Rename moves oldp to newp (same-session, possibly across dirs).
func (s *Session) Rename(oldp, newp string) error {
	fromDir, fromBase, err := s.resolveParent(oldp)
	if err != nil {
		return err
	}
	toDir, toBase, err := s.resolveParent(newp)
	if err != nil {
		return err
	}
	if err := s.nfs.Rename(fromDir, fromBase, toDir, toBase); err != nil {
		return err
	}
	s.forgetDentry(oldp)
	s.forgetDentry(newp)
	return nil
}

// Symlink creates a symbolic link at p pointing to target.
func (s *Session) Symlink(target, p string) error {
	dir, base, err := s.resolveParent(p)
	if err != nil {
		return err
	}
	_, _, err = s.nfs.Symlink(dir, base, target)
	return err
}

// ReadLink returns the target of the symlink at p.
func (s *Session) ReadLink(p string) (string, error) {
	fh, _, err := s.resolve(p)
	if err != nil {
		return "", err
	}
	return s.nfs.ReadLink(fh)
}

// ReadDir lists the directory at p.
func (s *Session) ReadDir(p string) ([]nfs3.DirEntry, error) {
	fh, _, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	return s.nfs.ReadDirAll(fh)
}

func (s *Session) resolveParent(p string) (nfs3.FH, string, error) {
	clean := path.Clean("/" + p)
	dir, base := path.Split(clean)
	if base == "" {
		return nil, "", errors.New("gvfs: empty file name")
	}
	fh, ftyp, err := s.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if ftyp != nfs3.TypeDir {
		return nil, "", &nfs3.Error{Status: nfs3.ErrNotDir, Op: dir}
	}
	return fh, base, nil
}

// Open opens an existing file for reading and writing.
func (s *Session) Open(p string) (*File, error) {
	fh, ftyp, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	if ftyp == nfs3.TypeDir {
		return nil, &nfs3.Error{Status: nfs3.ErrIsDir, Op: p}
	}
	attr, err := s.nfs.GetAttr(fh)
	if err != nil {
		return nil, err
	}
	f := &File{s: s, fh: fh, key: fh.Key(), path: path.Clean("/" + p), size: attr.Size}
	s.trackFile(f)
	return f, nil
}

// Create creates (or truncates) a file and opens it.
func (s *Session) Create(p string) (*File, error) {
	dir, base, err := s.resolveParent(p)
	if err != nil {
		return nil, err
	}
	var zero uint64
	fh, _, err := s.nfs.Create(dir, base, nfs3.SetAttr{Size: &zero}, false)
	if err != nil {
		return nil, err
	}
	s.pages.InvalidateFile(fh)
	clean := path.Clean("/" + p)
	f := &File{s: s, fh: fh, key: fh.Key(), path: clean}
	s.mu.Lock()
	s.dentries[clean] = dentry{fh: fh, ftyp: nfs3.TypeReg}
	s.files[f] = struct{}{}
	s.mu.Unlock()
	return f, nil
}

// ReadFile reads the whole file at p.
func (s *Session) ReadFile(p string) ([]byte, error) {
	f, err := s.Open(p)
	if err != nil {
		return nil, err
	}
	data, err := f.ReadAll()
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// WriteFile creates p with the given contents. The close-time commit
// error is reported: a nil return means the data reached (at least)
// the first-hop proxy's cache.
func (s *Session) WriteFile(p string, data []byte) error {
	f, err := s.Create(p)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
