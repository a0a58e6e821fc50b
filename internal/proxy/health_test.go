package proxy

// Satellite coverage: circuit-breaker half-open behavior under
// concurrency (internal/proxy/health.go). While the breaker is open,
// exactly one probe loop owns recovery: racing transport failures must
// not spawn extra probers (no thundering herd against a struggling
// upstream), blocked callers must fail fast without ever touching the
// transport, and recovery must close the breaker — and trigger replay
// — exactly once.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// gate is a switchable upstream transport: while down it fails every
// call with a transport error. It counts every call that reaches it,
// which is how the tests distinguish "one probe loop" from a herd.
type gate struct {
	calls atomic.Int64
	up    atomic.Bool
}

func (g *gate) hook(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
	g.calls.Add(1)
	if !g.up.Load() {
		return nil, fmt.Errorf("gate: transport down")
	}
	return next()
}

// gatedChain is a cache-less chain behind g with the breaker's threshold
// and probe interval.
func gatedChain(t *testing.T, g *gate, threshold int, interval time.Duration) *Proxy {
	return newChain(t, chainSpec{noCache: true, hook: g.hook, config: func(c *Config) {
		c.FailureThreshold, c.ProbeInterval = threshold, interval
	}}).p
}

// nullCall mimics what every proxy-initiated upstream call does since
// the backend split: fail fast while the breaker is open, otherwise
// touch the transport and feed the outcome to the health tracker.
func nullCall(p *Proxy) error {
	if p.Degraded() {
		p.stats.breakerFastFails.Add(1)
		return errUpstreamDown
	}
	err := p.cfg.Backend.Probe()
	p.observeUpstream(err)
	return err
}

// tripBreaker drives the proxy's own failure accounting until the
// breaker opens.
func tripBreaker(t *testing.T, p *Proxy, threshold int) {
	t.Helper()
	for i := 0; i < threshold; i++ {
		if err := nullCall(p); err == nil {
			t.Fatal("call succeeded against a down gate")
		}
	}
	if !p.Degraded() {
		t.Fatal("breaker did not open at the failure threshold")
	}
}

func TestBreakerOpenCallersFailFastWithoutProbing(t *testing.T) {
	const (
		threshold = 3
		interval  = 40 * time.Millisecond
	)
	g := &gate{}
	p := gatedChain(t, g, threshold, interval)
	tripBreaker(t, p, threshold)
	tripCalls := g.calls.Load()

	// Hammer the open breaker from many goroutines. Every call must
	// fail fast with the breaker error; none may reach the transport.
	const workers, perWorker = 16, 50
	start := time.Now()
	var wg sync.WaitGroup
	var wrongErr atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := nullCall(p); !errors.Is(err, errUpstreamDown) {
					wrongErr.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := wrongErr.Load(); n != 0 {
		t.Errorf("%d hammer calls did not fail fast with errUpstreamDown", n)
	}
	if elapsed > 2*time.Second {
		t.Errorf("fast-fail path took %v for %d calls", elapsed, workers*perWorker)
	}
	fastFails := p.Snapshot().Counter("gvfs_proxy_breaker_fastfails_total")
	if fastFails < workers*perWorker {
		t.Errorf("fast-fail counter %d < %d hammer calls", fastFails, workers*perWorker)
	}
	// Only the probe loop may have touched the transport while open:
	// at most one probe per interval (plus generous scheduling slack),
	// nowhere near the 800 hammer calls.
	probeBudget := int64(elapsed/interval) + 5
	if got := g.calls.Load() - tripCalls; got > probeBudget {
		t.Errorf("%d transport calls while breaker open; want <= %d (single probe loop)", got, probeBudget)
	}
}

func TestBreakerConcurrentFailuresSpawnOneProbeLoop(t *testing.T) {
	const interval = 50 * time.Millisecond
	g := &gate{}
	p := gatedChain(t, g, 2, interval)

	// Race many goroutines through the failure accounting so the trip
	// decision itself is contended.
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.observeUpstream(errors.New("transport down"))
			}
		}()
	}
	wg.Wait()
	if !p.Degraded() {
		t.Fatal("breaker did not open")
	}
	if opens := p.Snapshot().Counter("gvfs_proxy_breaker_opens_total"); opens != 1 {
		t.Fatalf("breaker opened %d times from one outage", opens)
	}

	// Watch the down upstream for a handful of intervals: a single
	// probe loop sends ~1 call per interval; 32 leaked loops would
	// send ~32x that.
	before := g.calls.Load()
	const window = 8 * interval
	time.Sleep(window)
	probes := g.calls.Load() - before
	if probes > int64(window/interval)+4 {
		t.Errorf("%d probes in %v; more than one probe loop is running", probes, window)
	}
	if probes == 0 {
		t.Error("no probes while the breaker was open")
	}
}

func TestBreakerRecoveryClosesOnceAndReplaysOnce(t *testing.T) {
	const interval = 30 * time.Millisecond
	g := &gate{}
	p := gatedChain(t, g, 2, interval)
	tripBreaker(t, p, 2)

	// Heal the transport; the single prober must close the breaker.
	g.up.Store(true)
	WaitUntil(t, "breaker close", 5*time.Second, func() bool { return !p.Degraded() })

	// The loser callers racing in right after recovery go upstream
	// normally — they must not re-trip or re-probe a healthy path.
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := nullCall(p); err != nil {
					t.Errorf("post-recovery call failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	WaitUntil(t, "replay", 5*time.Second, func() bool {
		return p.Snapshot().Counter("gvfs_proxy_replays_total") == 1
	})
	if opens := p.Snapshot().Counter("gvfs_proxy_breaker_opens_total"); opens != 1 {
		t.Errorf("breaker opened %d times across one outage+recovery", opens)
	}
	// The probe loop must have exited: no further probes land on the
	// healthy upstream.
	settled := g.calls.Load()
	time.Sleep(4 * interval)
	if extra := g.calls.Load() - settled; extra != 0 {
		t.Errorf("%d stray probes after recovery", extra)
	}
}

// TestEveryProxyHasTheBreaker: a proxy whose Config names no breaker
// setting still tracks its upstream. After backend.DefaultFailureThreshold
// consecutive unavailable calls the breaker opens; upstream calls then
// fail fast while cached data keeps being served, and once a probe (every
// backend.DefaultProbeInterval) finds the upstream again the dirty data is
// written back.
func TestEveryProxyHasTheBreaker(t *testing.T) {
	const bs = 8192
	fs := memfs.New()
	if err := fs.WriteFile("/disk.img", make([]byte, 4*bs)); err != nil {
		t.Fatal(err)
	}
	// The link to the origin can be cut: while down every call fails with
	// a transport error, which the proxy counts as unavailable; failed
	// counts those that reached the cut link, the breaker's NULL probes
	// aside.
	var down atomic.Bool
	var failed atomic.Int64
	ch := newChain(t, chainSpec{fs: fs,
		cache: &cache.Config{Banks: 2, SetsPerBank: 8, Assoc: 4, BlockSize: bs, Policy: cache.WriteBack},
		hook: func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
			if !down.Load() {
				return next()
			}
			if c.Proc != nfs3.ProcNull {
				failed.Add(1)
			}
			return nil, errors.New("link down")
		}})
	p, nc := ch.p, ch.nc
	fh, _, err := nc.Lookup(ch.root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, bs)
	if _, _, err := nc.Write(fh, 0, data, nfs3.Unstable); err != nil {
		t.Fatal(err)
	}

	// The origin goes away; each write-back attempt is one failed call.
	down.Store(true)
	for !p.Degraded() {
		if failed.Load() > backend.DefaultFailureThreshold {
			t.Fatalf("breaker still closed after %d unavailable calls", failed.Load())
		}
		if err := p.WriteBack(); err == nil {
			t.Fatal("write-back succeeded with the upstream down")
		}
	}
	if n := failed.Load(); n != backend.DefaultFailureThreshold {
		t.Fatalf("breaker opened after %d unavailable calls, want %d", n, backend.DefaultFailureThreshold)
	}

	// Open: the dirty block is served, a miss fails fast, and neither
	// reaches the link.
	if got, _, err := nc.Read(fh, 0, bs); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached read while degraded: %v", err)
	}
	if _, _, err := nc.Read(fh, 2*bs, bs); err == nil {
		t.Fatal("a miss was answered while the upstream is down")
	}
	if err := p.WriteBack(); err == nil {
		t.Fatal("write-back succeeded while the breaker is open")
	}
	if n := failed.Load(); n != backend.DefaultFailureThreshold {
		t.Errorf("%d calls reached the link while the breaker was open", n-backend.DefaultFailureThreshold)
	}
	if p.Snapshot().Counter("gvfs_proxy_breaker_fastfails_total") == 0 {
		t.Error("no fast-fails counted while the breaker was open")
	}

	// The origin returns: a probe closes the breaker and the replay
	// writes the dirty block back.
	down.Store(false)
	WaitUntil(t, "replay to the origin", 5*time.Second, func() bool {
		got, err := fs.ReadFile("/disk.img")
		return err == nil && bytes.Equal(got[:bs], data)
	})
	if p.Degraded() {
		t.Error("breaker still open after the replay")
	}
}
