package proxy

// The session's attribute/lookup table: what the proxy has learnt about a
// file handle since the middleware's last Flush (its fattr3, its place in
// the name space, its symlink target, its meta-data state) and, per
// (directory, name), which handle the name leads to or that it leads
// nowhere. Session consistency (paper §3.2.1, DESIGN.md §6.3) applies to
// it as to data: a proxy with a block cache answers LOOKUP, GETATTR and
// READLINK from it, every relayed reply refreshes it, name-changing calls
// invalidate what they touch, Proxy.Flush drops it.
//
// The update rule is "dirty data wins": the origin has not seen the
// session's absorbed writes, so an upstream attribute never lowers a
// regular file's size, used bytes or times; SETATTR (the mtime or size a
// client sets is the file's), a truncating CREATE and REMOVE are the only
// ways back. A proxy that holds
// no data (the cache-less relay) takes upstream attributes as they come
// and keeps no index of names: it answers nothing from the table.
//
// A directory whose whole listing went in is complete: a name the table
// does not have there does not exist. So is one an OK MKDIR through the
// proxy made. It stays complete across a name change through the proxy
// whose reply says what the name now is (an OK CREATE, MKDIR, SYMLINK,
// MKNOD, LINK, REMOVE or RMDIR), which goes into the table; any other
// name change in it ends that, as does an entry filed in it leaving the
// index (evicted, forgotten, or its handle filed under another name: a
// hard link) or the directory's own entry going.

import (
	"bytes"
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"

	"gvfs/internal/backend"
	"gvfs/internal/nfs3"
)

// attrTableCap bounds the table, positive and negative entries together;
// past it the least recently used entry that is not pinned goes.
const attrTableCap = 64 << 10

// anyGen installs unconditionally (see attrTable.gens).
const anyGen = ^uint64(0)

// attrStripes is how many ways attrTable.gens and .writes are striped.
const attrStripes = 256

type nameKey struct{ dir, name string }

// mountKey is an MNT call: its dirpath exactly as sent (mountd matches
// exact strings) and its credential exactly as received.
type mountKey struct {
	dirpath string
	flavor  uint32
	cred    string
}

// mountReply is upstream's OK reply to one MNT, and the root handle in it.
type mountReply struct {
	root string
	res  []byte
}

// fileInfo is what the data path reads of a file: it lives in the file's
// entry and is copied out, by value, in a fileView.
type fileInfo struct {
	attr      nfs3.Fattr
	hasSize   bool   // attr.Size is the file's size; else only a lower bound (absorbed writes end there)
	hasAttr   bool   // attr is a whole fattr3 from upstream, good to serve
	dir, name string // the name this entry is filed under; dir "" = none
	full      string // path from the export root, "" = unknown
	label     string // what the accounting tables call the file: full, or the handle in hex
	target    string // symlink target, "" = unknown
	// writer is who the file's dirty blocks go back upstream as: the
	// credential of the last WRITE it absorbed, interned. It is zero — the
	// backend's own — once the file is clean, and for the blocks a crashed
	// predecessor's journal left, whose writers no one knows.
	writer backend.Cred
}

type attrEntry struct {
	fileInfo
	fh string // "" marks a negative entry: dir/name does not exist
	// dirty: the file has absorbed writes that no write-back of everything
	// has settled since (settled): some of them may be nowhere upstream
	// yet, so its size and writer are nowhere else.
	dirty      bool
	wroteAt    uint64 // attrTable.absorbed after its last absorbed WRITE
	list       listState
	meta       metaState
	prev, next *attrEntry // LRU ring through attrTable.lru
}

// listState is what a directory's entry knows of its listing.
type listState uint8

const (
	unlisted   listState = iota // not listed, or a name in it changed since: a miss may list it
	complete                    // every name in it is filed: one that is not does not exist
	unlistable                  // its listing came back partial or refused: misses are forwarded
)

// fileView is a by-value copy of an entry for the data path: one table
// touch per call, no allocation, nothing aliased but meta. label is ""
// only for a handle the table has no entry for.
type fileView struct {
	fileInfo
	meta *metaState
	fh   string // the entry's copy of the handle: a map key that costs no allocation
}

// post is the view's attribute as a post_op_attr: nil unless servable.
func (v *fileView) post() *nfs3.Fattr {
	if v.hasAttr {
		return &v.attr
	}
	return nil
}

// view copies e out. A handle without a known path is labelled by its
// bytes, formatted once per entry, not once per READ or WRITE: a client
// that keeps a handle across a Flush is in that state until it looks the
// name up again.
func (e *attrEntry) view() fileView {
	if e.label == "" {
		e.label = fhLabel(nfs3.FH(e.fh))
	}
	return fileView{e.fileInfo, &e.meta, e.fh}
}

func fhLabel(fh nfs3.FH) string { return fmt.Sprintf("fh:%x", string(fh)) }

// setFull records e's path ("" = unknown), which is also its label.
func (e *attrEntry) setFull(full string) { e.full, e.label = full, full }

type attrTable struct {
	holdsData bool // the proxy caches data: dirty data wins, and names are worth indexing
	limit     int  // attrTableCap; a test lowers it to put the table under pressure

	mu    sync.Mutex
	byFH  map[string]*attrEntry
	names map[nameKey]*attrEntry
	roots map[string]string // export root handle -> path; no one mounts again after a Flush, so Flush keeps it
	// mounts holds upstream's OK MNT replies, which answer a repeated MNT.
	// Flush keeps them as it keeps roots; a STALE root drops its own.
	mounts map[mountKey]mountReply
	lru    attrEntry // ring sentinel: next is the most recent entry
	n      int
	// absorbed counts the WRITEs the caches absorbed (wrote), which
	// orders them against a write-back of everything (settled). Written
	// under mu, read without.
	absorbed atomic.Uint64
	// lists holds a channel per directory listing in flight, closed when
	// its reply is in: the misses in that directory wait for it. A listing
	// takes itself out, Flush leaves it be (its stripe has moved).
	lists map[string]chan struct{}
	// changing counts, per name, the calls changing it upstream now
	// (startChange to endChange). Its directory's completeness does not
	// answer such a name absent, and its entry going does not end that
	// completeness: the call's outcome is filed, or ends it, when it is
	// in. Flush leaves it be, as it does lists.
	changing map[nameKey]int
	// gens orders replies against name and size changes: a LOOKUP or
	// GETATTR reads its stripe before going upstream and its reply is
	// installed only if no REMOVE, CREATE, SETATTR… of the same (handle,
	// name) ran through this proxy in between. Striped, not one counter: a
	// LOOKUP reply skipped for another client's unrelated CREATE leaves the
	// handle without a path (no file channel, no zero filter) for as long
	// as its client's own dentry cache spares it the next LOOKUP — one
	// counter took wan_clone's two clients to 4x the cold-clone time.
	gens [attrStripes]uint64
	// writes orders the data a READ brought back against the WRITEs of
	// the file that upstream answered meanwhile, in the same stripes. A
	// block cached ahead of demand (the rest of a miss run, a prefetch)
	// stays cached only if its file's count is what it was when the
	// READ left: otherwise the bytes may predate a write this session
	// has since flushed. Not reset by Flush, read without mu.
	writes [attrStripes]atomic.Uint64
}

func newAttrTable(holdsData bool) *attrTable {
	t := &attrTable{holdsData: holdsData, limit: attrTableCap, byFH: make(map[string]*attrEntry),
		names: make(map[nameKey]*attrEntry), roots: make(map[string]string), mounts: make(map[mountKey]mountReply),
		lists: make(map[string]chan struct{}), changing: make(map[nameKey]int)}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

func stripeOf(fh nfs3.FH, name string) uint32 {
	h := uint32(2166136261) // FNV-1a
	for _, b := range fh {
		h = (h ^ uint32(b)) * 16777619
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h % attrStripes
}

func (t *attrTable) stripe(fh nfs3.FH, name string) *uint64 { return &t.gens[stripeOf(fh, name)] }

// writeSeq is what a READ about to go upstream for blocks of fh hands
// back to Proxy.keepAhead with the reply.
func (t *attrTable) writeSeq(fh nfs3.FH) uint64 { return t.writes[stripeOf(fh, "")].Load() }

// wroteUpstream records that upstream has answered a WRITE of fh.
func (t *attrTable) wroteUpstream(fh nfs3.FH) { t.writes[stripeOf(fh, "")].Add(1) }

// generation is what a caller about to ask upstream about fh (name "") or
// fh/name hands back to learn or negative with the reply.
func (t *attrTable) generation(fh nfs3.FH, name string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *t.stripe(fh, name)
}

func (t *attrTable) current(fh nfs3.FH, name string, gen uint64) bool {
	return gen == anyGen || gen == *t.stripe(fh, name)
}

func (t *attrTable) touch(e *attrEntry) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	} else {
		t.n++
	}
	e.prev, e.next = &t.lru, t.lru.next
	e.prev.next, e.next.prev = e, e
}

func (t *attrTable) remove(e *attrEntry) {
	t.unfile(e)
	if e.fh != "" {
		delete(t.byFH, e.fh)
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	t.n--
}

// evict brings the table back under its cap. A dirty entry, or one whose
// file came through the file channel, is never the victim (its state is
// nowhere else); those met on the way move to the front, so the scan
// stays short, and the table exceeds the cap by at most their number.
func (t *attrTable) evict() {
	for scanned := 0; t.n > t.limit && scanned < 8; scanned++ {
		if e := t.lru.prev; e.dirty || e.meta.fetched.Load() {
			t.touch(e)
		} else {
			t.remove(e)
		}
	}
}

// entry returns fh's entry, most recently used, creating it on demand.
func (t *attrTable) entry(fh nfs3.FH, create bool) *attrEntry {
	e := t.byFH[string(fh)]
	if e == nil {
		if !create {
			return nil
		}
		e = &attrEntry{fh: string(fh)}
		e.setFull(t.roots[e.fh])
		t.byFH[e.fh] = e
		t.touch(e)
		t.evict()
		return e
	}
	t.touch(e)
	return e
}

// unfile takes e out of the index of names. The directory that loses a
// name this way is no longer complete — the name would read as absent —
// unless a call is changing the name.
func (t *attrTable) unfile(e *attrEntry) {
	if k := (nameKey{e.dir, e.name}); e.dir != "" && t.names[k] == e {
		delete(t.names, k)
		if e.fh != "" && t.changing[k] == 0 {
			t.lapse(e.dir)
		}
	}
	e.dir, e.name = "", ""
}

// lapse ends dir's completeness, if it had any.
func (t *attrTable) lapse(dir string) {
	if d := t.byFH[dir]; d != nil && d.list == complete {
		d.list = unlisted
	}
}

// file puts e under dir/name, displacing whatever the name led to (the
// directory loses no name by that) and e's other name, if it had one. A
// table that answers nothing keeps no index of names.
func (t *attrTable) file(e *attrEntry, dir nfs3.FH, name string) {
	k := nameKey{string(dir), name}
	if old := t.names[k]; old == e {
		return
	} else if old != nil {
		delete(t.names, k)
		old.dir, old.name = "", ""
		if old.fh == "" {
			t.remove(old)
		} else {
			old.setFull("")
		}
	}
	t.unfile(e)
	e.dir, e.name = k.dir, name
	if t.holdsData {
		t.names[k] = e
	}
	e.setFull(t.join(k.dir, name))
}

// join is the path of dir/name, "" when dir's is unknown.
func (t *attrTable) join(dir, name string) string {
	if d := t.byFH[dir]; d != nil && d.full != "" {
		return path.Join(d.full, name)
	} else if root, ok := t.roots[dir]; ok {
		return path.Join(root, name)
	}
	return ""
}

// pathOf is join for a caller outside the table.
func (t *attrTable) pathOf(dir nfs3.FH, name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.join(string(dir), name)
}

// repath moves the paths at and under from to under to ("" = unknown),
// after a RENAME moved them there: one pass over the table.
func (t *attrTable) repath(from, to string) {
	if from == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.byFH {
		if rest, ok := strings.CutPrefix(e.full, from); ok && (rest == "" || rest[0] == '/') {
			full := "" // moved where the table has no path: none, not the bare suffix
			if to != "" {
				full = to + rest
			}
			e.setFull(full)
		}
	}
}

// merged is what upstream's a becomes for e under the update rule; with
// times false the rule covers only the size (the client has set the times).
func (t *attrTable) merged(e *attrEntry, a *nfs3.Fattr, times bool) nfs3.Fattr {
	m := *a
	if t.holdsData && a.Type == nfs3.TypeReg {
		m.Size, m.Used = max(e.attr.Size, a.Size), max(e.attr.Used, a.Used)
		if times && a.Mtime.Less(e.attr.Mtime) {
			m.Mtime = e.attr.Mtime
		}
		if times && a.Ctime.Less(e.attr.Ctime) {
			m.Ctime = e.attr.Ctime
		}
	}
	return m
}

// mount returns upstream's reply to an earlier MNT like k, if one is kept.
func (t *attrTable) mount(k mountKey) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.mounts[k]
	return m.res, ok
}

// mounted records upstream's OK reply res to the MNT k: the export root
// fh's path, for fh->path resolution, and the reply, for the next MNT
// like k. A burst of distinct credentials resets the replies, as it
// resets an intern table.
func (t *attrTable) mounted(k mountKey, fh nfs3.FH, full string, res []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.mounts) >= internMax {
		clear(t.mounts)
	}
	t.mounts[k] = mountReply{string(fh), bytes.Clone(res)}
	t.roots[string(fh)] = full
	if e := t.byFH[string(fh)]; e != nil {
		e.setFull(full)
	}
}

// get is the data path's one touch of the table.
func (t *attrTable) get(fh nfs3.FH) (fileView, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entry(fh, false); e != nil {
		return e.view(), true
	}
	return fileView{}, false
}

// child resolves dir/name. A known name with no handle is a negative
// entry, and a name a complete directory does not have is as good as
// one — the name does not exist — while no call is changing it. Either
// answers only in a directory the table knows the place of (placed).
func (t *attrTable) child(dir nfs3.FH, name string) (fh nfs3.FH, v fileView, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := nameKey{string(dir), name}
	e := t.names[k]
	switch {
	case e != nil && e.fh != "":
	case !t.placed(k.dir):
		return nil, v, false
	case e == nil:
		d := t.byFH[k.dir]
		if ok = d != nil && d.list == complete && t.changing[k] == 0; ok {
			t.touch(d)
		}
		return nil, v, ok
	}
	t.touch(e)
	return nfs3.FH(e.fh), e.view(), true
}

// placed reports whether the table knows where dir is: under a name it
// has filed, or as an export root. A directory removed through the proxy
// under a name the table did not have is forgotten by no one, and must
// not go on answering NOENT for names in it, where its handle is stale.
func (t *attrTable) placed(dir string) bool {
	if _, ok := t.roots[dir]; ok {
		return true
	}
	d := t.byFH[dir]
	return d != nil && d.dir != ""
}

// learn records what an upstream reply said about obj: its attributes
// (nil = none in the reply, which voids what the table held; exact = the
// call truncated the file, so the update rule does not apply) and, with
// dir set, that dir/name leads to it. A reply whose gen is stale installs
// nothing. Either way it returns the attributes to pass on downstream,
// which never undercut dirty data, and whether there are any.
func (t *attrTable) learn(obj, dir nfs3.FH, name string, a *nfs3.Fattr, exact bool, gen uint64) (nfs3.Fattr, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	install := len(obj) > 0 && (dir == nil && t.current(obj, "", gen) || dir != nil && t.current(dir, name, gen))
	e := t.entry(obj, install && (a != nil || dir != nil))
	var m nfs3.Fattr
	if a != nil && (e == nil || exact) {
		m = *a
	} else if a != nil {
		m = t.merged(e, a, true)
	}
	if e == nil || !install {
		return m, a != nil
	}
	if dir != nil {
		t.file(e, dir, name)
	}
	if a != nil {
		e.attr, e.hasSize, e.hasAttr = m, true, true
	} else if dir == nil {
		e.hasAttr = false
	}
	return e.attr, e.hasAttr
}

// update is learn for a reply that says nothing about names and raced
// nothing: fh's post-op attributes, nil when the reply had none.
func (t *attrTable) update(fh nfs3.FH, a *nfs3.Fattr) { t.learn(fh, nil, "", a, false, anyGen) }

// negative records that dir/name does not exist.
func (t *attrTable) negative(dir nfs3.FH, name string, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.holdsData || !t.current(dir, name, gen) {
		return
	}
	e := &attrEntry{}
	t.file(e, dir, name)
	t.touch(e)
	t.evict()
}

// A call that changes dir/name upstream is bracketed by startChange, as
// it leaves, and endChange, once what its reply says is in the table;
// it calls invalidateName when the reply comes in.

// startChange marks dir/name as changing and invalidates it.
func (t *attrTable) startChange(dir nfs3.FH, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.changing[nameKey{string(dir), name}]++
	t.invalidate(dir, name)
}

// endChange ends startChange's mark. Unless the table now has what the
// call made of the name (filed), dir's completeness ends: the name may be
// there now, or gone.
func (t *attrTable) endChange(dir nfs3.FH, name string, filed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := nameKey{string(dir), name}
	if t.changing[k]--; t.changing[k] == 0 {
		delete(t.changing, k)
	}
	if !filed {
		t.lapse(k.dir)
	}
}

// invalidateName forgets what dir/name leads to, and advances its
// generation so a reply already on its way is not installed — and dir's
// own, so a listing of dir on its way is not installed either.
func (t *attrTable) invalidateName(dir nfs3.FH, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalidate(dir, name)
}

func (t *attrTable) invalidate(dir nfs3.FH, name string) {
	*t.stripe(dir, name)++
	*t.stripe(dir, "")++
	if e := t.names[nameKey{string(dir), name}]; e != nil && e.fh == "" {
		t.remove(e)
	} else if e != nil {
		t.unfile(e)
	}
}

// The outcomes of a listing, as gvfs_proxy_dir_listings_total labels them.
const (
	listComplete = "complete"
	listPartial  = "partial"
	listRefused  = "refused"
)

// refuses reports whether st is an upstream's no to listing a directory
// at all, not a failure a later listing need not meet.
func refuses(st nfs3.Status) bool {
	switch st {
	case nfs3.ErrNotSupp, nfs3.ErrNotDir, nfs3.ErrAcces, nfs3.ErrPerm:
		return true
	}
	return false
}

// startListing is a LOOKUP miss in dir asking for its listing: it returns
// the listing in flight to wait for (lead false), or a new one for the
// caller to send, with dir's generation (lead true), or nil when dir is
// unlistable — or complete, the miss being for a name a call is changing
// or one filed without attributes: a listing would not answer it.
func (t *attrTable) startListing(dir nfs3.FH) (ch chan struct{}, lead bool, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch = t.lists[string(dir)]; ch != nil {
		return ch, false, 0
	}
	if d := t.byFH[string(dir)]; d != nil && d.list != unlisted {
		return nil, false, 0
	}
	ch = make(chan struct{})
	t.lists[string(dir)] = ch
	return ch, true, *t.stripe(dir, "")
}

// installListing files a listing of dir — a READDIRPLUS reply from
// cookie 0 on (nil: none came), asked for when dir's generation was gen —
// and says what it was: complete, which dir now is; refused (a status
// that refuses) or partial (no eof, an entry without its handle or
// attributes, or a name the install cost the directory: a hard link, an
// eviction), after which dir is unlistable until Flush; or partial with
// nothing installed, when a name in dir changed (or a Flush ran) while
// the listing was upstream. Another error status installs nothing, as
// none at all: a later miss may list dir again. ch, when set, is the
// listing's from startListing: the misses waiting for it go once the
// install is done.
func (t *attrTable) installListing(dir nfs3.FH, r *nfs3.ReaddirplusRes, gen uint64, ch chan struct{}) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch != nil {
		delete(t.lists, string(dir))
		close(ch) // its waiters look at the table after this call
	}
	switch {
	case r == nil, r.Status != nfs3.OK && !refuses(r.Status):
		return ""
	case !t.current(dir, "", gen):
		return listPartial
	case r.Status != nfs3.OK:
		t.entry(dir, true).list = unlistable
		return listRefused
	}
	d := t.entry(dir, true)
	if r.DirAttr != nil {
		d.attr, d.hasSize, d.hasAttr = t.merged(d, r.DirAttr, true), true, true
	}
	d.list = complete // until filing an entry costs dir a name (unfile)
	whole := r.EOF
	for i := range r.Entries {
		switch ent := &r.Entries[i]; {
		case ent.Name == "." || ent.Name == "..":
		case len(ent.Handle) == 0 || ent.Attr == nil:
			whole = false
		default:
			e := t.entry(ent.Handle, true)
			t.file(e, dir, ent.Name)
			e.attr, e.hasSize, e.hasAttr = t.merged(e, ent.Attr, true), true, true
		}
	}
	if !t.holdsData { // no index of names: the listing was paths and labels, not answers
		d.list = unlisted
		return ""
	}
	if t.byFH[string(dir)] != d { // the entries pushed dir's own out: nothing to mark
		return listPartial
	}
	t.touch(d)
	if !whole || d.list != complete {
		d.list = unlistable
		return listPartial
	}
	return listComplete
}

// made marks the directory an OK MKDIR through this proxy made as
// complete — it has no name yet — by the listing's rules: only in a table
// that holds data, only while its entry is there and unlisted, and only
// if no name in it changed since its generation was gen.
func (t *attrTable) made(dir nfs3.FH, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.byFH[string(dir)]; t.holdsData && d != nil && d.list == unlisted && t.current(dir, "", gen) {
		d.list = complete
	}
}

// forget drops fh's entry, and the MNT replies that lead to it: the file
// is gone or the handle stale.
func (t *attrTable) forget(fh nfs3.FH) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*t.stripe(fh, "")++
	if _, ok := t.roots[string(fh)]; ok {
		for k, m := range t.mounts {
			if m.root == string(fh) {
				delete(t.mounts, k)
			}
		}
	}
	if e := t.byFH[string(fh)]; e != nil {
		t.remove(e)
	}
}

// sawSize records a size seen without a whole fattr3 from upstream — in
// a reply, or the length of a file-channel transfer — and returns fh's
// view.
func (t *attrTable) sawSize(fh nfs3.FH, size uint64) fileView {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(fh, true)
	if !t.holdsData || size > e.attr.Size {
		e.attr.Size, e.attr.Used = size, size
	}
	e.hasSize = true
	return e.view()
}

// wrote records a WRITE by writer that the caches absorbed, ending at
// end. Of a file whose size the table does not know, that is a lower
// bound and stays one.
func (t *attrTable) wrote(fh nfs3.FH, end uint64, now nfs3.Time, writer backend.Cred) fileView {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(fh, true)
	e.attr.Size, e.attr.Used, e.dirty = max(e.attr.Size, end), max(e.attr.Used, end), true
	if e.attr.Mtime.Less(now) {
		e.attr.Mtime, e.attr.Ctime = now, now
	}
	e.writer, e.wroteAt = writer, t.absorbed.Add(1)
	return e.view()
}

// fetchedDirty returns the handles of the files that came through the
// file channel and have absorbed writes since the last write-back settled.
func (t *attrTable) fetchedDirty() (out []nfs3.FH) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fh, e := range t.byFH {
		if e.dirty && e.meta.fetched.Load() {
			out = append(out, nfs3.FH(fh))
		}
	}
	return out
}

// settled records that a write-back of everything dirty succeeded, begun
// when absorbed was seq: a file that absorbed no WRITE since is clean
// upstream, and its entry is no longer pinned.
func (t *attrTable) settled(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.byFH {
		if e.dirty && e.wroteAt <= seq {
			e.dirty, e.writer = false, backend.Cred{}
		}
	}
}

// setattr records an OK SETATTR, which may lower what nothing else does:
// an mtime the call set is the file's, whatever the table held, and so is
// a size it set (the block cache has pushed out and dropped the file's
// frames by then). What it did not set stays under the update rule.
func (t *attrTable) setattr(fh nfs3.FH, after *nfs3.Fattr, set *nfs3.SetAttr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*t.stripe(fh, "")++
	e := t.entry(fh, after != nil)
	if e == nil {
		return
	}
	if set.Size != nil {
		e.attr.Size, e.attr.Used, e.hasSize = *set.Size, min(e.attr.Used, *set.Size), true
	}
	if e.hasAttr = after != nil; e.hasAttr {
		e.attr, e.hasSize = t.merged(e, after, set.MtimeHow == nfs3.DontChange), true
	}
}

func (t *attrTable) setTarget(fh nfs3.FH, target string) {
	t.mu.Lock()
	if e := t.entry(fh, false); e != nil {
		e.target = target
	}
	t.mu.Unlock()
}

// reset empties the table; in-flight replies are not installed after it.
func (t *attrTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.byFH)
	clear(t.names)
	t.lru.prev, t.lru.next, t.n = &t.lru, &t.lru, 0
	for i := range t.gens {
		t.gens[i]++
	}
}

func (t *attrTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
