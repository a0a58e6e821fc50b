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
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// gateCaller is a switchable upstream transport: while down it fails
// every call with a transport error; once up it answers NULL. It
// counts every call that actually reaches it, which is how the tests
// distinguish "one probe loop" from a herd.
type gateCaller struct {
	calls atomic.Int64
	up    atomic.Bool
}

func (g *gateCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	g.calls.Add(1)
	if !g.up.Load() {
		return nil, fmt.Errorf("gate: transport down")
	}
	return nil, nil
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
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
	gate := &gateCaller{}
	p, err := New(Config{
		Upstream:         gate,
		FailureThreshold: threshold,
		ProbeInterval:    interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	tripBreaker(t, p, threshold)
	tripCalls := gate.calls.Load()

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
	if got := gate.calls.Load() - tripCalls; got > probeBudget {
		t.Errorf("%d transport calls while breaker open; want <= %d (single probe loop)", got, probeBudget)
	}
}

func TestBreakerConcurrentFailuresSpawnOneProbeLoop(t *testing.T) {
	const interval = 50 * time.Millisecond
	gate := &gateCaller{}
	p, err := New(Config{
		Upstream:         gate,
		FailureThreshold: 2,
		ProbeInterval:    interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

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
	before := gate.calls.Load()
	const window = 8 * interval
	time.Sleep(window)
	probes := gate.calls.Load() - before
	if probes > int64(window/interval)+4 {
		t.Errorf("%d probes in %v; more than one probe loop is running", probes, window)
	}
	if probes == 0 {
		t.Error("no probes while the breaker was open")
	}
}

func TestBreakerRecoveryClosesOnceAndReplaysOnce(t *testing.T) {
	const interval = 30 * time.Millisecond
	gate := &gateCaller{}
	p, err := New(Config{
		Upstream:         gate,
		FailureThreshold: 2,
		ProbeInterval:    interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	tripBreaker(t, p, 2)

	// Heal the transport; the single prober must close the breaker.
	gate.up.Store(true)
	waitUntil(t, "breaker close", func() bool { return !p.Degraded() })

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

	waitUntil(t, "replay", func() bool {
		return p.Snapshot().Counter("gvfs_proxy_replays_total") == 1
	})
	if opens := p.Snapshot().Counter("gvfs_proxy_breaker_opens_total"); opens != 1 {
		t.Errorf("breaker opened %d times across one outage+recovery", opens)
	}
	// The probe loop must have exited: no further probes land on the
	// healthy upstream.
	settled := gate.calls.Load()
	time.Sleep(4 * interval)
	if extra := gate.calls.Load() - settled; extra != 0 {
		t.Errorf("%d stray probes after recovery", extra)
	}
}

// downCaller is an upstream link that can be cut: while down every call
// fails with a transport error, which the proxy counts as unavailable.
type downCaller struct {
	nfs3.Caller
	down   atomic.Bool
	failed atomic.Int64 // calls that reached the cut link, the breaker's NULL probes aside
}

func (d *downCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	if d.down.Load() {
		if proc != nfs3.ProcNull {
			d.failed.Add(1)
		}
		return nil, errors.New("link down")
	}
	return d.Caller.Call(prog, vers, proc, cred, args)
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
	up := &downCaller{Caller: nfsdInProcess(t, fs)}
	bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 2, SetsPerBank: 8, Assoc: 4,
		BlockSize: bs, Policy: cache.WriteBack})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	p, err := New(Config{Upstream: up, BlockCache: bc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "outage"}.Encode()
	rpc := sunrpc.Local{H: p}
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(rpc, cred)
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, bs)
	if _, _, err := nc.Write(fh, 0, data, nfs3.Unstable); err != nil {
		t.Fatal(err)
	}

	// The origin goes away; each write-back attempt is one failed call.
	up.down.Store(true)
	for !p.Degraded() {
		if up.failed.Load() > backend.DefaultFailureThreshold {
			t.Fatalf("breaker still closed after %d unavailable calls", up.failed.Load())
		}
		if err := p.WriteBack(); err == nil {
			t.Fatal("write-back succeeded with the upstream down")
		}
	}
	if n := up.failed.Load(); n != backend.DefaultFailureThreshold {
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
	if n := up.failed.Load(); n != backend.DefaultFailureThreshold {
		t.Errorf("%d calls reached the link while the breaker was open", n-backend.DefaultFailureThreshold)
	}
	if p.Snapshot().Counter("gvfs_proxy_breaker_fastfails_total") == 0 {
		t.Error("no fast-fails counted while the breaker was open")
	}

	// The origin returns: a probe closes the breaker and the replay
	// writes the dirty block back.
	up.down.Store(false)
	waitUntil(t, "replay to the origin", func() bool {
		got, err := fs.ReadFile("/disk.img")
		return err == nil && bytes.Equal(got[:bs], data)
	})
	if p.Degraded() {
		t.Error("breaker still open after the replay")
	}
}
