package proxy

// Per-file and per-client accounting, and the write-back audit log.
// The metrics registry answers "how much, in aggregate"; these tables
// answer the operator questions the paper's session model makes
// specific: which file is hot, which client is issuing the op mix, and
// where each dirty block is in the session-consistency lifecycle
// (dirtied -> flush triggered -> WRITE committed upstream). The whole
// surface is served as one bounded JSON document at /statusz.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/backend/replbe"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/qos"
	"gvfs/internal/sunrpc"
)

const (
	// DefaultTopN bounds every per-file ranking in the statusz document.
	DefaultTopN = 10
	// DefaultAuditRing bounds the write-back audit event ring.
	DefaultAuditRing = 128
	// DefaultAcctEntries caps each accounting table (files, clients).
	DefaultAcctEntries = 4096
	// DefaultAcctTTL evicts accounting entries idle this long once a
	// table is at its cap.
	DefaultAcctTTL = 15 * time.Minute
)

// Audit event kinds and flush-trigger reasons.
const (
	AuditDirty   = "dirty"
	AuditTrigger = "flush_trigger"
	AuditCommit  = "commit"

	TriggerWriteBack = "write_back"     // middleware SIGUSR1 / WriteBack()
	TriggerFlush     = "flush"          // middleware SIGUSR2 / Flush()
	TriggerIdle      = "idle"           // idle-session background write-back
	TriggerReplay    = "replay"         // post-recovery breaker replay
	TriggerRecovery  = "crash_recovery" // journal replay after a proxy crash
)

// FileStats is one file's row in the statusz tables.
type FileStats struct {
	File          string  `json:"file"`
	Reads         uint64  `json:"reads"`
	Writes        uint64  `json:"writes"`
	ReadBytes     uint64  `json:"read_bytes"`
	WriteBytes    uint64  `json:"write_bytes"`
	BlockHits     uint64  `json:"block_hits"`
	BlockMisses   uint64  `json:"block_misses"`
	HitRatio      float64 `json:"hit_ratio"`
	ZeroReads     uint64  `json:"zero_reads"`
	ZeroSavedB    uint64  `json:"zero_saved_bytes"`
	FileCacheHits uint64  `json:"file_cache_hits"`
	DegradedReads uint64  `json:"degraded_reads"`
}

// ClientStats is one client's row: who they are and their op mix.
type ClientStats struct {
	Client        string            `json:"client"`
	Ops           map[string]uint64 `json:"ops"`
	ReadBytes     uint64            `json:"read_bytes"`
	WriteBytes    uint64            `json:"write_bytes"`
	DegradedReads uint64            `json:"degraded_reads"`
}

// AuditEvent is one step of a dirty block's lifecycle.
type AuditEvent struct {
	TimeNs  int64  `json:"time_ns"`
	Kind    string `json:"kind"` // dirty | flush_trigger | commit
	File    string `json:"file,omitempty"`
	Block   uint64 `json:"block,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Reason  string `json:"reason,omitempty"`        // flush_trigger only
	Pending int    `json:"pending_dirty,omitempty"` // flush_trigger only
	AgeNs   int64  `json:"age_ns,omitempty"`        // commit: dirty-block age
}

// Statusz is the full /statusz document.
type Statusz struct {
	NowNs    int64 `json:"now_ns"`
	Degraded bool  `json:"degraded"`
	TopN     int   `json:"top_n"`

	FilesTracked int                    `json:"files_tracked"`
	Files        map[string][]FileStats `json:"files"` // ranking name -> top-N rows
	Clients      []ClientStats          `json:"clients"`

	// QoS is the admission scheduler's per-tenant table (absent when
	// QoS is disabled), with cache-analytics demand columns merged in
	// when -cachean is on. Brownout mirrors the
	// gvfs_qos_brownout_active gauge.
	QoS      []TenantRow `json:"qos_tenants,omitempty"`
	Brownout bool        `json:"brownout,omitempty"`

	// AttrTable is the session's attribute/lookup table: what it holds
	// and how many LOOKUP, GETATTR and READLINK calls it answered.
	AttrTable AttrTableStats `json:"attr_table"`

	// Replication is the replicated backend's health snapshot (absent
	// for single-backend proxies).
	Replication *replbe.Stats `json:"replication,omitempty"`

	Audit AuditLog `json:"writeback_audit"`
}

// AttrTableStats is the attribute table's row in the statusz document.
type AttrTableStats struct {
	Entries  int     `json:"entries"` // handles and negative names held, of attrTableCap
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// TenantRow is one tenant's row in the statusz QoS table: the
// admission scheduler's counters joined with the cache-analytics
// demand estimate for the same identity (zero when analytics are off
// or the tenant's accesses were never sampled). WorkingSetBytes is
// the SHARDS-scaled estimate of distinct bytes the tenant touched in
// the sliding window; SampledUniqueBlocks is the raw (unscaled)
// evidence behind it.
type TenantRow struct {
	qos.TenantStats
	WorkingSetBytes     uint64 `json:"working_set_bytes"`
	SampledUniqueBlocks uint64 `json:"sampled_unique_blocks"`
}

// AuditLog is the audit section of the statusz document.
type AuditLog struct {
	DirtyBlocks      int          `json:"dirty_blocks"`
	OldestDirtyAgeNs int64        `json:"oldest_dirty_age_ns"`
	TotalEvents      uint64       `json:"total_events"`
	Capacity         int          `json:"capacity"`
	Events           []AuditEvent `json:"events"`
}

type fileAcct struct {
	FileStats
	touched int64 // unix nanos of last update, for eviction
}

type clientAcct struct {
	ops           map[string]uint64
	readBytes     uint64
	writeBytes    uint64
	degradedReads uint64
	touched       int64 // unix nanos of last update, for eviction
}

// accounting holds all three tables under one mutex (the audit ring
// is added to under it too, so its order is the table's). Updates are one
// short critical section per call — small next to the XDR decode each
// call already pays. The files and clients tables are bounded: a
// client-ID (or file-handle) churn storm evicts idle entries past the
// TTL — or, failing that, the least-recently-touched entry — instead
// of growing the proxy heap without limit.
type accounting struct {
	topN int

	evictions atomic.Uint64 // entries dropped from either table

	audit *obs.Ring[AuditEvent]

	mu      sync.Mutex
	files   map[string]*fileAcct   // keyed by file label, at most DefaultAcctEntries
	clients map[string]*clientAcct // keyed by client identity, at most DefaultAcctEntries
	dirtyAt map[dirtyID]int64      // handle + block -> dirtied unix nanos
}

// newAccounting returns tables ranking topN rows, with an audit ring of
// auditCap events.
func newAccounting(topN, auditCap int) *accounting {
	return &accounting{
		topN:    topN,
		audit:   obs.NewRing[AuditEvent](auditCap),
		files:   make(map[string]*fileAcct),
		clients: make(map[string]*clientAcct),
		dirtyAt: make(map[dirtyID]int64),
	}
}

// evictLocked makes room in a table at its cap: first sweep entries
// idle past the TTL, and if nothing is that old drop the single
// least-recently-touched entry so the cap always holds.
func evictLocked[V any](m map[string]V, touched func(V) int64, now int64, ttl time.Duration) (evicted uint64) {
	cutoff := now - ttl.Nanoseconds()
	oldestKey := ""
	oldestAt := int64(1<<63 - 1)
	for k, v := range m {
		at := touched(v)
		if at <= cutoff {
			delete(m, k)
			evicted++
		} else if at < oldestAt {
			oldestAt, oldestKey = at, k
		}
	}
	if evicted == 0 && oldestKey != "" {
		delete(m, oldestKey)
		evicted++
	}
	return evicted
}

func (a *accounting) fileLocked(label string) *fileAcct {
	now := time.Now().UnixNano()
	f, ok := a.files[label]
	if !ok {
		if len(a.files) >= DefaultAcctEntries {
			a.evictions.Add(evictLocked(a.files,
				func(f *fileAcct) int64 { return f.touched }, now, DefaultAcctTTL))
		}
		f = &fileAcct{FileStats: FileStats{File: label}}
		a.files[label] = f
	}
	f.touched = now
	return f
}

func (a *accounting) clientLocked(key string) *clientAcct {
	now := time.Now().UnixNano()
	c, ok := a.clients[key]
	if !ok {
		if len(a.clients) >= DefaultAcctEntries {
			a.evictions.Add(evictLocked(a.clients,
				func(c *clientAcct) int64 { return c.touched }, now, DefaultAcctTTL))
		}
		c = &clientAcct{ops: make(map[string]uint64)}
		a.clients[key] = c
	}
	c.touched = now
	return c
}

// recordOp counts one handled call into the client's op mix.
func (a *accounting) recordOp(client, proc string) {
	a.mu.Lock()
	a.clientLocked(client).ops[proc]++
	a.mu.Unlock()
}

// recordRead attributes one READ to its file and client.
func (a *accounting) recordRead(file, client, outcome string, bytes uint32, degraded bool) {
	a.mu.Lock()
	f := a.fileLocked(file)
	f.Reads++
	f.ReadBytes += uint64(bytes)
	switch outcome {
	case "block_hit":
		f.BlockHits++
	case "block_miss":
		f.BlockMisses++
	case "zero_filter":
		f.ZeroReads++
		f.ZeroSavedB += uint64(bytes)
	case "file_cache":
		f.FileCacheHits++
	}
	c := a.clientLocked(client)
	c.readBytes += uint64(bytes)
	if degraded {
		f.DegradedReads++
		c.degradedReads++
	}
	a.mu.Unlock()
}

// recordWrite attributes one WRITE to its file and client.
func (a *accounting) recordWrite(file, client string, bytes int) {
	a.mu.Lock()
	f := a.fileLocked(file)
	f.Writes++
	f.WriteBytes += uint64(bytes)
	a.clientLocked(client).writeBytes += uint64(bytes)
	a.mu.Unlock()
}

// dirtyID keys the dirty-block lifecycle table by handle, not label: a
// RENAME, a name filed over another or a Flush changes a dirty file's
// label before its write-back.
type dirtyID struct {
	fh    string
	block uint64
}

// blockDirtied opens a lifecycle: a write-back cache absorbed a write.
// Re-dirtying an already-dirty block keeps the original timestamp, so
// the eventual commit reports the full time the data was at risk.
// fh is the handle as a string (fileView.keyOf).
func (a *accounting) blockDirtied(fh, file string, block uint64, bytes int) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	if _, dirty := a.dirtyAt[dirtyID{fh, block}]; !dirty {
		a.dirtyAt[dirtyID{fh, block}] = now
	}
	a.audit.Add(AuditEvent{TimeNs: now, Kind: AuditDirty, File: file, Block: block, Bytes: bytes})
	a.mu.Unlock()
}

// flushTriggered records why dirty state is about to move upstream.
func (a *accounting) flushTriggered(reason string) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	a.audit.Add(AuditEvent{TimeNs: now, Kind: AuditTrigger, Reason: reason, Pending: len(a.dirtyAt)})
	a.mu.Unlock()
}

// writeCommitted closes a lifecycle: the block's WRITE landed upstream.
// file is the label the file has now.
func (a *accounting) writeCommitted(fh nfs3.FH, file string, block uint64, bytes int) {
	now := time.Now().UnixNano()
	e := AuditEvent{TimeNs: now, Kind: AuditCommit, File: file, Block: block, Bytes: bytes}
	a.mu.Lock()
	if dirtied, ok := a.dirtyAt[dirtyID{string(fh), block}]; ok {
		e.AgeNs = now - dirtied
		delete(a.dirtyAt, dirtyID{string(fh), block})
	}
	a.audit.Add(e)
	a.mu.Unlock()
}

// rankings orders the per-file top-N tables of the statusz document.
var rankings = []struct {
	name string
	key  func(*FileStats) float64
}{
	{"reads", func(f *FileStats) float64 { return float64(f.Reads) }},
	{"writes", func(f *FileStats) float64 { return float64(f.Writes) }},
	{"bytes", func(f *FileStats) float64 { return float64(f.ReadBytes + f.WriteBytes) }},
	{"hit_ratio", func(f *FileStats) float64 { return f.HitRatio }},
	{"zero_savings", func(f *FileStats) float64 { return float64(f.ZeroSavedB) }},
}

// snapshot assembles the statusz document.
func (a *accounting) snapshot(degraded bool) Statusz {
	now := time.Now().UnixNano()
	a.mu.Lock()
	rows := make([]FileStats, 0, len(a.files))
	for _, f := range a.files {
		r := f.FileStats
		if lookups := r.BlockHits + r.BlockMisses; lookups > 0 {
			r.HitRatio = float64(r.BlockHits) / float64(lookups)
		}
		rows = append(rows, r)
	}
	clients := make([]ClientStats, 0, len(a.clients))
	for key, c := range a.clients {
		ops := make(map[string]uint64, len(c.ops))
		for p, n := range c.ops {
			ops[p] = n
		}
		clients = append(clients, ClientStats{
			Client: key, Ops: ops,
			ReadBytes: c.readBytes, WriteBytes: c.writeBytes,
			DegradedReads: c.degradedReads,
		})
	}
	var oldest int64
	for _, at := range a.dirtyAt {
		if age := now - at; age > oldest {
			oldest = age
		}
	}
	audit := AuditLog{
		DirtyBlocks:      len(a.dirtyAt),
		OldestDirtyAgeNs: oldest,
		TotalEvents:      a.audit.Total(),
		Capacity:         a.audit.Capacity(),
		Events:           a.audit.Values(),
	}
	a.mu.Unlock()

	doc := Statusz{
		NowNs:        now,
		Degraded:     degraded,
		TopN:         a.topN,
		FilesTracked: len(rows),
		Files:        make(map[string][]FileStats, len(rankings)),
		Clients:      clients,
		Audit:        audit,
	}
	sort.Slice(doc.Clients, func(i, j int) bool { return doc.Clients[i].Client < doc.Clients[j].Client })
	for _, r := range rankings {
		sorted := append([]FileStats(nil), rows...)
		sort.SliceStable(sorted, func(i, j int) bool {
			ki, kj := r.key(&sorted[i]), r.key(&sorted[j])
			if ki != kj {
				return ki > kj
			}
			return sorted[i].File < sorted[j].File
		})
		if len(sorted) > a.topN {
			sorted = sorted[:a.topN]
		}
		doc.Files[r.name] = sorted
	}
	// Bound the client table the same way the file tables are bounded.
	if len(doc.Clients) > a.topN {
		doc.Clients = doc.Clients[:a.topN]
	}
	return doc
}

// Statusz returns the proxy's accounting snapshot.
func (p *Proxy) Statusz() Statusz {
	doc := p.acct.snapshot(p.Degraded())
	for _, ts := range p.QoSTenants() {
		row := TenantRow{TenantStats: ts}
		if p.cfg.Cachean != nil {
			row.WorkingSetBytes, row.SampledUniqueBlocks = p.cfg.Cachean.TenantWSS(ts.Client)
		}
		doc.QoS = append(doc.QoS, row)
	}
	doc.Brownout = p.brownout()
	at := &doc.AttrTable
	at.Entries = p.attrs.len()
	for proc, hits := range p.stats.attrHits {
		if hits != nil {
			at.Hits, at.Misses = at.Hits+hits.Value(), at.Misses+p.stats.attrMisses[proc].Value()
		}
	}
	if at.Hits > 0 {
		at.HitRatio = float64(at.Hits) / float64(at.Hits+at.Misses)
	}
	if rb, ok := p.cfg.Backend.(*replbe.Backend); ok {
		s := rb.Stats()
		doc.Replication = &s
	}
	return doc
}

// WriteStatusz renders the /statusz JSON document.
func (p *Proxy) WriteStatusz(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Statusz())
}

// fileLabel names a file for the accounting tables: the path when the
// proxy has resolved one (MNT/LOOKUP observed), else the handle bytes.
func (p *Proxy) fileLabel(fh nfs3.FH) string {
	v, _ := p.attrs.get(fh)
	return v.labelOf(fh)
}

// keyOf is fh as a string, the table's own copy when it has an entry.
func (v *fileView) keyOf(fh nfs3.FH) string {
	if v.fh != "" {
		return v.fh
	}
	return string(fh)
}

// labelOf is fileLabel for a caller that already holds the file's view.
func (v *fileView) labelOf(fh nfs3.FH) string {
	if v.label != "" {
		return v.label
	}
	return fhLabel(fh)
}

// clientLabel identifies the calling client: the AUTH_UNIX machine
// name and UID when present, else the transport peer address.
func clientLabel(c *sunrpc.Call) string {
	if cred, err := sunrpc.DecodeUnixCred(c.Cred); err == nil {
		return fmt.Sprintf("%s/uid=%d", cred.MachineName, cred.UID)
	}
	if c.RemoteAddr != nil {
		return c.RemoteAddr.String()
	}
	return "unknown"
}

// clientLabel is the interned form of the free function: deriving the
// label decodes the credential and formats a string, which would be
// the data path's biggest allocator.
func (p *Proxy) clientLabel(c *sunrpc.Call) string {
	if c.Cred.Flavor != sunrpc.AuthUnix || len(c.Cred.Body) == 0 {
		return clientLabel(c)
	}
	return p.labels.get(c.Cred.Body, func() string { return clientLabel(c) })
}
