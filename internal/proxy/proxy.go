// Package proxy implements the GVFS user-level file system proxy — the
// paper's core contribution. A proxy receives NFS RPC calls (acting as
// a server) and satisfies them from its caches or forwards them to the
// next hop (acting as a client), which may be another proxy or the end
// NFS server. Proxies therefore cascade into multi-level hierarchies:
// client-side proxy with disk cache, optional LAN second-level proxy,
// and server-side proxy performing identity mapping.
//
// Per the paper, the proxy provides:
//
//   - a client-side, proxy-managed disk cache at NFS RPC granularity
//     with write-through or write-back policies (§3.2.1);
//   - meta-data handling: zero-block filtering for memory-state files
//     and the compress/remote-copy/uncompress/read-locally file channel,
//     whose whole-file transfer fills the disk cache (§3.2.2);
//   - cross-domain identity mapping via logical user accounts at the
//     server side;
//   - middleware-driven consistency: WriteBack and Flush entry points
//     that the gvfsproxy daemon binds to O/S signals.
//
// The proxy is transparent: unmodified NFS clients and servers sit at
// the ends of the chain, and applications (VM monitors) are unaware of
// the interposition.
package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/bufpool"
	"gvfs/internal/cache"
	"gvfs/internal/cachean"
	"gvfs/internal/meta"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/qos"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// Config assembles a proxy. At least one of Backend and Upstream must
// be set; everything else enables an optional paper mechanism.
type Config struct {
	// Backend is the upstream provider the proxy's data path (READ,
	// WRITE, write-back, read-ahead, meta-data) speaks to, cached or not.
	// Leaving it nil with Upstream set wraps Upstream in the NFSv3
	// backend (internal/backend/nfs3be) automatically, preserving the
	// classic proxy-over-RPC arrangement.
	Backend backend.Backend

	// Upstream is the RPC transport to the next hop. It remains the
	// control-plane relay — LOOKUP, MOUNT and directory operations are
	// forwarded verbatim. Leaving it nil with Backend set relays them to
	// Backend served as an in-process NFS + MOUNT service
	// (nfs3be.Serve; the objstore arrangement) — the mirror image of
	// leaving Backend nil.
	Upstream nfs3.Caller

	// Mapper, when set, rewrites AUTH_UNIX credentials to short-lived
	// local identities (server-side proxy role). Either way each client's
	// own credential rides every upstream call made for it, relayed or
	// through Backend (callOpts).
	Mapper *auth.Mapper

	// BlockCache, when set, caches blocks at NFS RPC granularity. The
	// proxy absorbs WRITEs exactly when it is a WriteBack cache that is
	// not ReadOnly; otherwise they are written through.
	BlockCache *cache.Cache

	// FileChanDial, with BlockCache, connects to the image server's file
	// channel: a file whose meta-data asks for it is fetched whole through
	// it into the block cache on its first READ.
	FileChanDial func() (net.Conn, error)

	// ReadAhead, when positive, fetches this many blocks — rounded up to
	// whole nfs3.MaxTransfer-aligned runs — into the disk cache ahead of a
	// client that is scanning a file (the paper's future-work pre-fetching
	// direction), one asynchronous upstream READ per run. Requires
	// BlockCache.
	ReadAhead int

	// FailureThreshold is the number of consecutive upstream transport
	// failures that opens the proxy's circuit breaker (0 =
	// backend.DefaultFailureThreshold). While it is open the proxy is
	// degraded: upstream calls fail fast, cached reads keep working (as
	// do LOOKUP/GETATTR from the attribute table), and the dirty data is
	// replayed once a probe finds the upstream again.
	FailureThreshold int

	// ProbeInterval is the recovery-probe period while the breaker is
	// open (0 = backend.DefaultProbeInterval).
	ProbeInterval time.Duration

	// Metrics is the registry this proxy's instruments live in. Nil
	// creates a private registry; either way it is readable through
	// MetricsRegistry and Snapshot. Sharing one registry across the
	// components of a node yields one unified stats surface.
	Metrics *obs.Registry

	// Tracer, when set, enables request tracing: each handled call is
	// recorded into the tracer's bounded ring with per-layer spans,
	// and the trace context is propagated upstream in the RPC verifier
	// (see sunrpc.TraceContext) so cascaded proxies that also trace
	// record the same trace ID at increasing hop counts.
	Tracer *obs.Tracer

	// Logger, when set, receives structured events (breaker
	// transitions, write-back replays) under the "proxy" component;
	// nil disables event logging.
	Logger *slog.Logger

	// Flight, when set, promotes interesting calls — slower than the
	// recorder's slow threshold, failed, or handled while the
	// breaker was open — into the flight recorder ring, and attaches a
	// matching exemplar to the call's latency histogram bucket.
	// Requires Tracer; without one there is no span tree to promote.
	Flight *obs.FlightRecorder

	// QoS, when set, runs every incoming call through per-client
	// admission control, fair-share scheduling and brownout
	// degradation. The caller owns the scheduler's lifecycle (the
	// stack layer builds and closes it alongside the proxy).
	QoS *qos.Scheduler

	// Cachean, when set, receives proxy-level demand taps (tenant
	// identity from the AUTH_UNIX credential, op-class tagging) and is
	// surfaced through /statusz, /cachez and the gvfs_cachean_*
	// metrics. The caller owns its lifecycle and normally also installs
	// it as the block cache's AccessTap (the stack layer does both).
	Cachean *cachean.Analyzer

	// CallBudget is the default per-call deadline applied to calls
	// that arrive without a propagated budget in the trace verifier.
	// The remaining budget is re-propagated upstream on every hop and
	// caps upstream retransmission. Zero applies no default deadline.
	CallBudget time.Duration
}

// metaState tracks per-file meta-data handling; it lives in the file's
// attribute-table entry.
type metaState struct {
	mu      sync.Mutex
	checked bool
	m       *meta.Meta // nil after check = no meta-data; its zero map is read and changed under mu
	// fetched: the file came whole through the file channel into the block
	// cache. Set under mu, read without it (attrTable.evict, serveBlockHit).
	fetched atomic.Bool
	// fills is odd while a file-channel fetch of the file runs. The fetch
	// installs blocks before it knows the transfer is good, so a block hit
	// read across one is not served (serveBlockHit).
	fills atomic.Uint64
	// The bytes WRITEs covered before the meta-data was looked up, as one
	// range (wroteHi 0 = none): metaFor takes it out of the zero map.
	wroteLo, wroteHi uint64
}

// wrote takes the blocks a WRITE of n bytes at off touches out of the
// file's zero map for the rest of the session. Dirty data wins: the map
// is middleware's word about the file as the session found it, and a
// block the session has written is the caches' to answer for, or —
// written through, or written back and evicted — upstream's.
func (ms *metaState) wrote(off, n uint64) {
	if n == 0 {
		return
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.checked {
		ms.unzero(off, off+n)
		return
	}
	if ms.wroteHi == 0 || off < ms.wroteLo {
		ms.wroteLo = off
	}
	ms.wroteHi = max(ms.wroteHi, off+n)
}

// vouches reports whether the file's zero map — once a READ has looked it
// up, and if its blocks are bs bytes — answers for block b.
func (ms *metaState) vouches(b, bs uint64) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.vouchesLocked(b, bs)
}

// vouchesLocked is vouches for a caller that holds ms.mu.
func (ms *metaState) vouchesLocked(b, bs uint64) bool {
	return ms.m != nil && uint64(ms.m.BlockSize) == bs && ms.m.IsZeroBlock(b)
}

// trimZeros moves end back over the blocks of bs bytes that the file's
// zero map answers for, but not below demanded.
func (ms *metaState) trimZeros(demanded, end, bs uint64) uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for end > demanded && ms.vouchesLocked(end-1, bs) {
		end--
	}
	return end
}

// unzero clears the zero map over [lo, hi) as far as its bitmap goes (the
// map's FileSize may claim any number of blocks). The caller holds ms.mu.
func (ms *metaState) unzero(lo, hi uint64) {
	if ms.m == nil || !ms.m.HasZeroMap() {
		return
	}
	bs := uint64(ms.m.BlockSize)
	n := min(ms.m.NumBlocks(), uint64(len(ms.m.ZeroMap))*8)
	for b := lo / bs; b < n && b*bs < hi; b++ {
		ms.m.ClearZero(b)
	}
}

// Proxy is a GVFS proxy. It implements sunrpc.Handler for both the NFS
// and MOUNT programs; register it for both on a sunrpc.Server.
type Proxy struct {
	cfg Config

	attrs *attrTable // what this session knows of handles and names

	labels intern[string] // incoming cred body -> accounting label
	bodies intern[[]byte] // upstream cred body -> the copy the proxy keeps past a call

	stats *counters    // instruments in the unified obs registry
	acct  *accounting  // per-file / per-client tables + write-back audit
	log   *slog.Logger // component-scoped event logger
	qos   *qos.Scheduler

	absorbs bool // the block cache is write-back and writable: WRITEs stay in it

	ra   *readAhead                // nil unless Config.ReadAhead > 0
	idle atomic.Pointer[idleState] // nil unless StartIdleWriteBack was called

	breaker *backend.Breaker // upstream health: degraded mode while open
	relay   nfs3.Caller      // control-plane next hop: Config.Upstream, or Config.Backend served in process

	// puts is held shared by each whole-file put of a fetched file, which
	// goes to the origin by path (putFetched), and exclusively by a RENAME
	// until the table has the new paths: no put lands under a moved name.
	puts sync.RWMutex
}

// New returns a Proxy for cfg. If a write-back block cache is
// supplied, its write-back function is wired to backend WRITE calls.
func New(cfg Config) (*Proxy, error) {
	if cfg.Backend == nil && cfg.Upstream == nil {
		return nil, fmt.Errorf("proxy: Config.Backend or Config.Upstream is required")
	}
	if cfg.Backend == nil {
		cfg.Backend = nfs3be.New(cfg.Upstream)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Proxy{
		cfg:   cfg,
		attrs: newAttrTable(cfg.BlockCache != nil),
		stats: newCounters(reg),
		acct:  newAccounting(DefaultTopN, DefaultAuditRing),
		log:   obs.OrDiscard(cfg.Logger).With("component", "proxy"),
		qos:   cfg.QoS,
		relay: cfg.Upstream,
	}
	if p.relay == nil {
		p.relay = nfs3be.Serve(cfg.Backend)
	}
	p.registerBridges(reg)
	if cfg.Cachean != nil {
		// Render raw fh keys in /cachez through the proxy's path map.
		cfg.Cachean.SetFileLabeler(func(key string) string {
			return p.fileLabel(nfs3.FH(key))
		})
	}
	if cfg.ReadAhead > 0 && cfg.BlockCache != nil {
		p.ra = newReadAhead()
	}
	p.breaker = backend.NewBreaker(cfg.FailureThreshold, cfg.ProbeInterval, p.probeUpstream, func() { go p.replayAfterRecovery() })
	if cfg.BlockCache != nil && !cfg.BlockCache.Config().ReadOnly {
		p.absorbs = cfg.BlockCache.Config().Policy == cache.WriteBack
		cfg.BlockCache.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
			return p.upstreamWrite(fh, off, data)
		})
	}
	return p, nil
}

// HandleCall implements sunrpc.Handler. Every call is timed into the
// per-procedure latency histogram; when tracing is enabled the call's
// trace (continued from a downstream hop, or originated here) is
// committed to the ring on return.
func (p *Proxy) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	start := time.Now()
	p.stats.calls.Add(1)
	// Per-client op-mix accounting is optional detail brownout sheds.
	if !p.brownout() {
		p.acct.recordOp(p.clientLabel(c), procLabel(c.Prog, c.Proc))
		if p.cfg.Cachean != nil && c.Prog == nfs3.Program {
			// Metadata op classes; READ/WRITE demand is tapped with its
			// block identity on the io.go paths instead.
			switch c.Proc {
			case nfs3.ProcRead, nfs3.ProcWrite:
			case nfs3.ProcGetattr:
				p.cfg.Cachean.DemandMeta(cachean.ClassGetattr)
			case nfs3.ProcLookup:
				p.cfg.Cachean.DemandMeta(cachean.ClassLookup)
			default:
				p.cfg.Cachean.DemandMeta(cachean.ClassOtherMeta)
			}
		}
	}
	if idle := p.idle.Load(); idle != nil {
		idle.touch()
	}
	degradedAtEntry := p.Degraded()
	p.setDeadline(c, start)
	release, shedRes, shedStat, admitted := p.admit(c)
	if !admitted {
		p.stats.observeRPC(c.Prog, c.Proc, time.Since(start))
		return shedRes, shedStat
	}
	defer release()
	tr := p.startTrace(c)
	var res []byte
	stat := sunrpc.ProgUnavail
	switch c.Prog {
	case nfs3.MountProgram:
		res, stat = p.handleMount(c, tr)
	case nfs3.Program:
		res, stat = p.handleNFS(c, tr)
	}
	d := time.Since(start)
	p.stats.observeRPC(c.Prog, c.Proc, d)
	trace := tr.Finish()
	p.maybePromote(c, trace, d, stat, degradedAtEntry)
	return res, stat
}

// maybePromote moves an interesting call's span tree into the flight
// recorder and links the call's latency bucket to it with an exemplar.
// Exemplars are set ONLY here, so every exemplar trace ID exposed at
// /metrics is guaranteed to resolve against /flightrec (until the
// recording ring overwrites it).
func (p *Proxy) maybePromote(c *sunrpc.Call, trace obs.Trace, d time.Duration, stat sunrpc.AcceptStat, degraded bool) {
	f := p.cfg.Flight
	if f == nil || trace.ID == 0 {
		return
	}
	var reason string
	switch {
	case stat != sunrpc.Success:
		reason = obs.ReasonError
	case degraded:
		reason = obs.ReasonBreakerOpen
	case f.ShouldRecord(d):
		reason = obs.ReasonSlow
	default:
		return
	}
	f.Record(trace, reason)
	p.stats.setExemplar(c.Prog, c.Proc, d, trace.ID)
	p.log.Debug("call promoted to flight recorder",
		"proc", trace.Proc, "trace_id", obs.TraceIDString(trace.ID),
		"reason", reason, "dur", d)
}

// handleMount answers an MNT that upstream has answered OK before, for
// the same dirpath and credential, with that reply, unless the breaker
// is open; the identity mapping still gates it. Every other MOUNT call
// is forwarded.
func (p *Proxy) handleMount(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(c.Args)
	dirpath := d.String()
	if c.Proc != mountd.ProcMnt || d.Err() != nil {
		return p.forward(c, tr)
	}
	k := mountKey{dirpath, c.Cred.Flavor, string(c.Cred.Body)}
	if !p.Degraded() {
		start := time.Now()
		if res, ok := p.attrs.mount(k); ok {
			if _, err := p.callOpts(c, tr); err != nil {
				return nil, sunrpc.SystemErr
			}
			tr.Span(obs.LayerAttrTable, "hit", start)
			return bytes.Clone(res), sunrpc.Success // an in-process caller owns the reply it gets
		}
	}
	res, stat := p.forward(c, tr)
	if stat != sunrpc.Success {
		return res, stat
	}
	d.ResetBytes(res)
	if nfs3.Status(d.Uint32()) == nfs3.OK {
		if fh := nfs3.DecodeFH(&d); d.Err() == nil {
			p.attrs.mounted(k, fh, path.Clean(dirpath), res)
		}
	}
	return res, stat
}

func (p *Proxy) handleNFS(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	switch c.Proc {
	case nfs3.ProcLookup:
		return p.handleLookup(c, tr)
	case nfs3.ProcGetattr:
		return p.handleGetattr(c, tr)
	case nfs3.ProcRead:
		return p.handleRead(c, tr)
	case nfs3.ProcWrite:
		return p.handleWrite(c, tr)
	case nfs3.ProcCommit:
		return p.handleCommit(c, tr)
	case nfs3.ProcSetattr:
		return p.handleSetattr(c, tr)
	case nfs3.ProcReadlink:
		return p.handleReadlink(c, tr)
	case nfs3.ProcReaddirplus:
		return p.handleReaddirplus(c, tr)
	case nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink, nfs3.ProcMknod,
		nfs3.ProcRemove, nfs3.ProcRmdir, nfs3.ProcRename, nfs3.ProcLink:
		return p.handleNameChange(c, tr)
	}
	return p.forward(c, tr)
}

// errUpstreamDown is returned by proxy-initiated calls that fail fast
// while the circuit breaker is open.
var errUpstreamDown = fmt.Errorf("proxy: upstream unavailable (circuit breaker open)")

// forward relays a control-plane call upstream unchanged except for
// credentials; READ and WRITE go through the backend whether the proxy
// caches or not. While the circuit breaker is open the call fails fast:
// degraded mode guarantees bounded error latency instead of hanging on a
// dead WAN. The results are the upstream reply where it lies in its
// pooled record, which becomes the call's ReplyBuf: valid until the
// handler returns, released by the RPC server after its one copy into
// the reply frame.
func (p *Proxy) forward(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	opts, err := p.callOpts(c, tr)
	if err != nil {
		return nil, sunrpc.SystemErr
	}
	var res, rec []byte
	err = p.upcall(tr, true, func() (err error) {
		res, rec, err = nfs3be.CallPooled(p.relay, c.Prog, c.Vers, c.Proc, sunrpc.OpaqueAuth(opts.Cred), c.Args, opts)
		return err
	})
	if err != nil {
		if rpcErr := (*sunrpc.RPCError)(nil); errors.As(err, &rpcErr) {
			return nil, rpcErr.Stat
		}
		return nil, sunrpc.SystemErr
	}
	c.ReplyBuf = rec
	return res, sunrpc.Success
}

// upstreamWrite propagates one block to the next hop with durable
// (FileSync) stability, under the credential of the last WRITE the file
// absorbed; used for write-back of dirty cache frames. A failure
// surfaces as a classified backend error, so journal rescue and
// keeps-dirty handling behave identically across backends.
func (p *Proxy) upstreamWrite(fh nfs3.FH, off uint64, data []byte) error {
	v, _ := p.attrs.get(fh)
	w, err := p.beWrite(fh, off, data, backend.CallOpts{Cred: v.writer}, nil, false)
	if err != nil {
		return err
	}
	if w.After.Known() {
		v = p.attrs.sawSize(fh, w.After.Size)
	}
	if p.cfg.BlockCache != nil {
		// A coalesced write-back covers several blocks; close each
		// block's dirty-lifecycle entry.
		bs := uint64(p.cfg.BlockCache.BlockSize())
		label := v.labelOf(fh)
		for rem, b := len(data), off/bs; rem > 0; b++ {
			n := int(bs)
			if rem < n {
				n = rem
			}
			p.acct.writeCommitted(fh, label, b, n)
			rem -= n
		}
	}
	return nil
}

// --- procedure handlers ---

// answersLocally: only a proxy that holds the session's data owns its
// attributes too — the same condition that lets a READ hit be served
// without revalidation. The cache-less relay keeps forwarding.
func (p *Proxy) answersLocally() bool { return p.cfg.BlockCache != nil }

// attrHit and attrMiss account one LOOKUP/GETATTR/READLINK the table did
// or did not answer; a hit shows in the call's trace as its only span.
func (p *Proxy) attrHit(proc uint32, tr *obs.Active, start time.Time) {
	p.stats.attrHits[proc].Add(1)
	tr.Span(obs.LayerAttrTable, "hit", start)
}

func (p *Proxy) handleLookup(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	args, err := nfs3.DecodeLookupArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	if args.Name == "." || args.Name == ".." {
		return p.forward(c, tr) // a second name for a directory filed elsewhere
	}
	if p.answersLocally() {
		start := time.Now()
		if res, ok := p.lookupLocally(args); ok {
			p.attrHit(nfs3.ProcLookup, tr, start)
			return res, sunrpc.Success
		}
		p.stats.attrMisses[nfs3.ProcLookup].Add(1)
		if p.listDir(c, args.Dir, tr) {
			if res, ok := p.lookupLocally(args); ok {
				tr.Span(obs.LayerAttrTable, "list", start)
				return res, sunrpc.Success
			}
		}
	}
	gen := p.attrs.generation(args.Dir, args.Name)
	res, stat := p.forward(c, tr)
	if stat != sunrpc.Success {
		return res, stat
	}
	r, err := nfs3.DecodeLookupRes(res)
	if err != nil {
		return res, stat
	}
	switch r.Status {
	case nfs3.OK:
		// The table's view goes downstream: a size the session's absorbed
		// writes have moved past the origin's is patched into the reply.
		if merged, ok := p.attrs.learn(r.Object, args.Dir, args.Name, r.ObjAttr, false, gen); ok && (r.ObjAttr == nil || merged != *r.ObjAttr) {
			r.ObjAttr = &merged
			res = r.Encode()
		}
	case nfs3.ErrNoEnt:
		p.attrs.negative(args.Dir, args.Name, gen)
	case nfs3.ErrStale:
		p.attrs.forget(args.Dir)
	}
	return res, stat
}

// lookupLocally answers a LOOKUP from the table, if it can: a name it has
// with its attributes, or one it knows is not there.
func (p *Proxy) lookupLocally(args *nfs3.LookupArgs) ([]byte, bool) {
	fh, v, ok := p.attrs.child(args.Dir, args.Name)
	if !ok || len(fh) > 0 && !v.hasAttr {
		return nil, false
	}
	r := nfs3.LookupRes{Status: nfs3.ErrNoEnt}
	if len(fh) > 0 {
		r.Status, r.Object, r.ObjAttr = nfs3.OK, fh, &v.attr
	}
	return r.Encode(), true
}

// listDir lists dir for a LOOKUP that missed in it: one READDIRPLUS from
// cookie 0 of up to nfs3.MaxTransfer bytes, under the caller's mapped
// credential and deadline, whose entries go into the table — or, when a
// listing of dir is already in flight, the wait for that one. It reports
// whether there was a listing; a directory whose listing came back partial
// or refused has none until Flush, and its misses are forwarded.
func (p *Proxy) listDir(c *sunrpc.Call, dir nfs3.FH, tr *obs.Active) bool {
	if p.Degraded() {
		return false
	}
	ch, lead, gen := p.attrs.startListing(dir)
	if !lead {
		if ch != nil {
			<-ch
		}
		return ch != nil
	}
	args := nfs3.ReaddirplusArgs{Dir: dir, DirCount: nfs3.MaxTransfer, MaxCount: nfs3.MaxTransfer}
	list := sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcReaddirplus,
		Cred: c.Cred, Args: args.Encode(), Deadline: c.Deadline}
	res, stat := p.forward(&list, tr)
	var r *nfs3.ReaddirplusRes // none: a later miss may list again
	switch {
	case stat == sunrpc.Success:
		var err error
		if r, err = nfs3.DecodeReaddirplusRes(res); err != nil {
			r = &nfs3.ReaddirplusRes{Status: nfs3.ErrNotSupp} // a reply that is not a listing is a refusal
		}
	case stat != sunrpc.SystemErr:
		r = &nfs3.ReaddirplusRes{Status: nfs3.ErrNotSupp} // so is an RPC-level no: PROC_UNAVAIL and the like
	}
	bufpool.Put(list.ReplyBuf) // r holds copies
	p.stats.countListing(p.attrs.installListing(dir, r, gen, ch))
	return true
}

// handleReaddirplus relays a client's READDIRPLUS. A whole listing — from
// cookie 0, with eof — goes into the table as the proxy's own would. The
// cache-less relay learns the paths of a listing's first page, whole or
// not, as it learns them from LOOKUP replies: the listings of the caching
// proxy below it are where it sees names.
func (p *Proxy) handleReaddirplus(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	args, err := nfs3.DecodeReaddirplusArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	gen := p.attrs.generation(args.Dir, "")
	res, stat := p.forward(c, tr)
	if stat == sunrpc.Success && args.Cookie == 0 {
		if r, err := nfs3.DecodeReaddirplusRes(res); err == nil && r.Status == nfs3.OK && (r.EOF || !p.answersLocally()) {
			p.stats.countListing(p.attrs.installListing(args.Dir, r, gen, nil))
		}
	}
	return res, stat
}

func (p *Proxy) handleGetattr(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	args, err := nfs3.DecodeGetattrArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	if p.answersLocally() {
		start := time.Now()
		if v, ok := p.attrs.get(args.FH); ok && v.hasAttr {
			p.attrHit(nfs3.ProcGetattr, tr, start)
			return (&nfs3.GetattrRes{Status: nfs3.OK, Attr: v.attr}).Encode(), sunrpc.Success
		}
		p.stats.attrMisses[nfs3.ProcGetattr].Add(1)
	}
	gen := p.attrs.generation(args.FH, "")
	res, stat := p.forward(c, tr)
	if stat != sunrpc.Success {
		return res, stat
	}
	r, err := nfs3.DecodeGetattrRes(res)
	if err != nil {
		return res, stat
	}
	switch r.Status {
	case nfs3.OK:
		if merged, _ := p.attrs.learn(args.FH, nil, "", &r.Attr, false, gen); merged != r.Attr {
			r.Attr = merged
			res = r.Encode()
		}
	case nfs3.ErrStale:
		p.attrs.forget(args.FH)
	}
	return res, stat
}

// handleReadlink answers from the target a SYMLINK through this proxy or
// an earlier READLINK reply left in the table.
func (p *Proxy) handleReadlink(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	args, err := nfs3.DecodeGetattrArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	if p.answersLocally() {
		start := time.Now()
		if v, ok := p.attrs.get(args.FH); ok && v.target != "" {
			p.attrHit(nfs3.ProcReadlink, tr, start)
			return (&nfs3.ReadlinkRes{Status: nfs3.OK, Attr: v.post(), Target: v.target}).Encode(), sunrpc.Success
		}
		p.stats.attrMisses[nfs3.ProcReadlink].Add(1)
	}
	res, stat := p.forward(c, tr)
	if stat != sunrpc.Success {
		return res, stat
	}
	if r, err := nfs3.DecodeReadlinkRes(res); err == nil && r.Status == nfs3.OK {
		p.attrs.update(args.FH, r.Attr)
		p.attrs.setTarget(args.FH, r.Target)
	} else if err == nil && r.Status == nfs3.ErrStale {
		p.attrs.forget(args.FH)
	}
	return res, stat
}

// handleNameChange is the one place a call that adds, removes or moves a
// name passes through: CREATE, MKDIR, SYMLINK, MKNOD, LINK, REMOVE, RMDIR
// and RENAME. What the call unlinks loses its cached state before the
// call goes upstream; every name it mentions is invalidated before and
// after it (a LOOKUP reply that raced it is then not installed); what the
// reply says is there, or gone, goes into the table. A complete directory
// stays so only when that says what the name now is; a directory an OK
// MKDIR made starts complete.
func (p *Proxy) handleNameChange(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(c.Args)
	var linked, toDir nfs3.FH
	var toName, target string
	var sized bool // a CREATE's attributes set a size: an existing file is truncated
	if c.Proc == nfs3.ProcLink {
		linked = nfs3.DecodeFH(&d)
	}
	dir, name := nfs3.DecodeFH(&d), d.String()
	switch c.Proc {
	case nfs3.ProcRename:
		toDir, toName = nfs3.DecodeFH(&d), d.String()
	case nfs3.ProcSymlink:
		nfs3.DecodeSetAttr(&d)
		target = d.String()
	case nfs3.ProcCreate:
		// UNCHECKED and GUARDED carry attributes, EXCLUSIVE a verifier.
		sized = d.Uint32() != nfs3.CreateExclusive && nfs3.DecodeSetAttr(&d).Size != nil
	}
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	var moved, dead, cut nfs3.FH // handles the table has for what the call moves, unlinks and truncates
	var from string              // the path a RENAME moves, and everything under it
	switch c.Proc {
	case nfs3.ProcRemove, nfs3.ProcRmdir:
		dead, _, _ = p.attrs.child(dir, name)
	case nfs3.ProcCreate:
		if sized {
			cut, _, _ = p.attrs.child(dir, name)
		}
	case nfs3.ProcRename:
		// The file a RENAME replaces goes like a removed one; the renamed
		// one keeps its entry, and its cached blocks, under the new name.
		moved, _, _ = p.attrs.child(dir, name)
		dead, _, _ = p.attrs.child(toDir, toName)
		from = p.attrs.pathOf(dir, name)
		p.puts.Lock()
		defer p.puts.Unlock()
	}
	// From here until the table has what the reply says, the names are
	// changing; filed says whether it then has what became of dir/name
	// (a RENAME's two names it never has: see below).
	filed := false
	p.attrs.startChange(dir, name)
	defer func() { p.attrs.endChange(dir, name, filed) }()
	if toDir != nil {
		p.attrs.startChange(toDir, toName)
		defer p.attrs.endChange(toDir, toName, false)
	}
	if len(dead) > 0 {
		if p.cfg.BlockCache != nil {
			if err := p.cfg.BlockCache.InvalidateFile(dead); err != nil {
				return nil, sunrpc.SystemErr
			}
		}
		p.attrs.forget(dead)
	}
	if len(cut) > 0 && p.cfg.BlockCache != nil {
		// Like a truncating SETATTR: push the file's dirty blocks out,
		// then drop its cached blocks, so none outlives the new size.
		if err := p.cfg.BlockCache.InvalidateFile(cut); err != nil {
			return nil, sunrpc.SystemErr
		}
	}
	res, stat := p.forward(c, tr)
	p.attrs.invalidateName(dir, name)
	if toDir != nil {
		p.attrs.invalidateName(toDir, toName)
	}
	if stat != sunrpc.Success {
		return res, stat
	}

	// Replies: CREATE/MKDIR/SYMLINK/MKNOD carry post_op_fh3 + post_op_attr
	// when OK, LINK the file's post_op_attr always; then one wcc_data per
	// directory, whose post-op half is the directory's new attributes.
	d.ResetBytes(res)
	st := nfs3.Status(d.Uint32())
	var obj nfs3.FH
	var attr *nfs3.Fattr
	switch c.Proc {
	case nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink, nfs3.ProcMknod:
		if st == nfs3.OK {
			obj, attr = nfs3.DecodePostOpFH(&d), nfs3.DecodePostOpAttr(&d)
		}
	case nfs3.ProcLink:
		obj, attr = linked, nfs3.DecodePostOpAttr(&d)
	}
	dirAttr := nfs3.DecodeWccData(&d).After
	var toAttr *nfs3.Fattr
	if toDir != nil {
		toAttr = nfs3.DecodeWccData(&d).After
	}
	if d.Err() != nil {
		dirAttr, toAttr, st = nil, nil, nfs3.ErrIO // undecodable: learn nothing, void the directories
	}
	p.attrs.update(dir, dirAttr)
	if toDir != nil {
		p.attrs.update(toDir, toAttr)
	}
	switch {
	case st == nfs3.ErrStale:
		p.attrs.forget(dir)
	case st != nfs3.OK:
	case c.Proc == nfs3.ProcRemove, c.Proc == nfs3.ProcRmdir:
		p.attrs.negative(dir, name, anyGen)
		filed = true
	case c.Proc == nfs3.ProcRename:
		// The old name is not recorded as gone: a RENAME between two
		// names of one file leaves both (POSIX), and the table cannot tell.
		p.attrs.repath(from, p.attrs.pathOf(toDir, toName))
		p.attrs.learn(moved, toDir, toName, nil, false, anyGen)
	case obj != nil:
		gen := p.attrs.generation(obj, "") // a MKDIR's, for made: no name in the new directory changed since
		// A CREATE may have truncated a file the table knew: its size is
		// the reply's, not the larger of the two.
		p.attrs.learn(obj, dir, name, attr, c.Proc == nfs3.ProcCreate, anyGen)
		filed = true
		if c.Proc == nfs3.ProcMkdir {
			p.attrs.made(obj, gen)
		}
		if target != "" {
			p.attrs.setTarget(obj, target)
		}
	}
	return res, stat
}

func (p *Proxy) handleSetattr(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	args, err := nfs3.DecodeSetattrArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	if args.Attr.Size != nil && p.cfg.BlockCache != nil {
		// Truncation: push dirty state out, then drop cached blocks.
		if err := p.cfg.BlockCache.InvalidateFile(args.FH); err != nil {
			return nil, sunrpc.SystemErr
		}
	}
	res, stat := p.forward(c, tr)
	if stat != sunrpc.Success {
		return res, stat
	}
	// A hop that cannot SETATTR still completes the call, with
	// NFS3ERR_NOTSUPP in the body: the size changes only on NFS3_OK.
	var d xdr.Decoder
	d.ResetBytes(res)
	st, after := nfs3.Status(d.Uint32()), nfs3.DecodeWccData(&d).After
	switch {
	case d.Err() != nil:
	case st == nfs3.ErrStale:
		p.attrs.forget(args.FH)
	case st == nfs3.OK:
		p.attrs.setattr(args.FH, after, &args.Attr)
	}
	return res, stat
}

func (p *Proxy) handleCommit(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	if p.absorbs {
		// Under session consistency the proxy owns dirty data until
		// the middleware says otherwise; acknowledge the commit.
		args, err := nfs3.DecodeCommitArgs(c.Args)
		if err != nil {
			return nil, sunrpc.GarbageArgs
		}
		b := xdr.NewBuilder()
		b.Uint32(uint32(nfs3.OK))
		v, _ := p.attrs.get(args.FH)
		wcc := nfs3.WccData{After: v.post()}
		wcc.Append(&b)
		b.FixedOpaque(nfs3.WriteVerf[:])
		return b.B, sunrpc.Success
	}
	return p.forward(c, tr)
}
