package proxy

import (
	"sync"

	"gvfs/internal/backend"
	"gvfs/internal/cache"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// Read-ahead implements one of the paper's stated future-work
// directions: "dynamic profiling of application data access behavior
// to support pre-fetching ... in a selective manner". A demand miss
// already moves in nfs3.MaxTransfer-aligned runs on the evidence that
// the block before it is resident (missRunEnd). Read-ahead is the same
// move made early: on that evidence, at a hit or a miss, the aligned runs
// after the one being read are started asynchronously, through the
// beRead → installRun → keepAhead a demand miss uses. Its only state is
// the table of runs in flight, which a demand READ joins instead of
// fetching the window again.

// raConcurrency bounds simultaneous read-ahead runs per proxy.
const raConcurrency = 16

// raWindow names one nfs3.MaxTransfer-aligned window of a file.
type raWindow struct {
	fh  string
	win uint64
}

type readAhead struct {
	mu sync.Mutex
	// inflight holds one channel per running run, closed when the run is
	// over. A run takes itself out (finish) and nothing else does — not
	// Flush either: joined READs wait on the channels.
	inflight map[raWindow]chan struct{}
	sem      chan struct{}
}

func newReadAhead() *readAhead {
	return &readAhead{
		inflight: make(map[raWindow]chan struct{}),
		sem:      make(chan struct{}, raConcurrency),
	}
}

// begin registers a run of the window key whose first block is block,
// taking one concurrency slot, unless the window is in flight, the block
// is resident or every slot is taken (the demand path never waits for
// read-ahead capacity). Both looks happen under ra.mu because a run
// installs its blocks before it leaves the table: a window found in
// neither place has not been fetched.
func (ra *readAhead) begin(bc *cache.Cache, fh nfs3.FH, key raWindow, block uint64) bool {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if _, busy := ra.inflight[key]; busy {
		return false
	}
	if cached, _ := bc.Peek(fh, block); cached {
		return false
	}
	select {
	case ra.sem <- struct{}{}:
	default:
		return false
	}
	ra.inflight[key] = make(chan struct{})
	return true
}

// finish ends the run of window key: its slot is free and the READs that
// joined it go on.
func (ra *readAhead) finish(key raWindow) {
	ra.mu.Lock()
	ch := ra.inflight[key]
	delete(ra.inflight, key)
	ra.mu.Unlock()
	<-ra.sem
	close(ch)
}

// waitFor blocks until the run in flight for fh's window win, if there is
// one, is over. It reports whether there was one to wait for.
func (ra *readAhead) waitFor(fh nfs3.FH, win uint64) bool {
	ra.mu.Lock()
	ch, ok := ra.inflight[raWindow{fh.Key(), win}]
	ra.mu.Unlock()
	if ok {
		<-ch
	}
	return ok
}

// maybePrefetch starts, after c's READ of blocks [first, end) by a client
// that is scanning, the Config.ReadAhead blocks' worth of whole runs that
// follow the window the READ ended in — those not resident at their first
// block, not in flight and not past a known end of file — as c's client.
// A run ahead costs a round trip where the rest of a miss run costs
// bytes, so it wants more of the same evidence: a window's length of the
// file before the READ is resident at both ends, which a coincidence
// among random misses almost never makes.
func (p *Proxy) maybePrefetch(c *sunrpc.Call, fh nfs3.FH, v *fileView, first, end uint64) {
	if p.ra == nil {
		return
	}
	// Optional work is the first thing brownout sheds: read-ahead spends
	// WAN round trips the overloaded proxy cannot spare. With the breaker
	// open a run would only fail fast.
	if p.brownout() || p.Degraded() {
		return
	}
	bs := uint64(p.cfg.BlockCache.BlockSize())
	per := nfs3.MaxTransfer / bs
	if first < per || !p.scanning(fh, first) {
		return
	}
	if cached, _ := p.cfg.BlockCache.Peek(fh, first-per); !cached {
		return
	}
	cred, err := p.keep(c)
	if err != nil {
		return
	}
	opts := backend.CallOpts{Cred: cred}
	runs := (uint64(p.cfg.ReadAhead) + per - 1) / per
	key := raWindow{fh: fh.Key()}
	for key.win = (end-1)/per + 1; runs > 0; key.win, runs = key.win+1, runs-1 {
		block := key.win * per
		if v.hasSize && block*bs >= v.attr.Size {
			return
		}
		if p.ra.begin(p.cfg.BlockCache, fh, key, block) {
			go p.runAhead(fh, key, block, p.runEnd(fh, v, block, block+1, bs), bs, opts)
		}
	}
}

// runAhead fetches blocks [first, end) of one window before any client
// asks and installs them as a demand miss installs the blocks past the
// demanded ones. Errors are swallowed: read-ahead is best-effort and the
// demand path is correct without it.
func (p *Proxy) runAhead(fh nfs3.FH, key raWindow, first, end, bs uint64, opts backend.CallOpts) {
	defer p.ra.finish(key)
	seq := p.attrs.writeSeq(fh)
	r, err := p.beRead(fh, first*bs, uint32((end-first)*bs), opts, nil, false)
	if err != nil {
		return
	}
	if r.Attr.Known() {
		p.attrs.sawSize(fh, r.Attr.Size, false)
	}
	p.installRun(fh, first, 0, r, seq)
	r.Release()
}
