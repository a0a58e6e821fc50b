package main

// The three loopback workloads drive bare nfs3.Clients (no page cache)
// against the client proxy: warm_hit and cold_scan read, write_flush
// writes and flushes. They share this file's session and window code.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
)

const mib = 1 << 20

// rawSpec sizes one loopback workload. Sizes are fixed; only the number
// of windows follows -seconds.
type rawSpec struct {
	fileMiB     int  // size of each image
	shared      bool // every client uses image 0; otherwise client c owns image c
	banks, sets int  // client-proxy cache geometry (16-way, 8 KiB blocks by default)
	random      bool // uniform-random blocks; otherwise a cyclic sequential scan
	warm        bool // setup reads every block once so the cache holds the image
	write       bool // WRITE then Proxy.Flush instead of READ
}

var rawSpecs = map[string]rawSpec{
	// 32 MiB image in a 64 MiB cache: 8 blocks per 16-way set, no conflict misses.
	"warm_hit": {fileMiB: 32, shared: true, banks: 8, sets: 64, random: true, warm: true},
	// 2 x 96 MiB scanned cyclically through 48 MiB: every set sees 64 blocks per cycle, LRU always misses.
	"cold_scan": {fileMiB: 96, banks: 6, sets: 64},
	// 2 x 48 MiB dirty data in a 128 MiB cache: 12 blocks per set, nothing is evicted before the flush.
	"write_flush": {fileMiB: 48, banks: 8, sets: 128, write: true},
}

func (s rawSpec) scaled(smoke bool) rawSpec {
	if smoke {
		// Self-test sizes: same shape (resident / 4x overcommitted /
		// all-dirty-fits), a sixteenth of the data.
		s.fileMiB /= 16
		s.sets /= 16
	}
	return s
}

func (s rawSpec) blocks() int { return s.fileMiB * mib / blockSize }

// rawClientState is one client's position in the workload.
type rawClientState struct {
	rc     *rawClient
	fh     nfs3.FH
	img    []byte // expected content (READ) or payload (WRITE) of this client's image
	rnd    rng
	next   int // next block of the sequential scan
	lat    []int64
	ops    int
	failed int
}

type rawSession struct {
	spec    rawSpec
	seed    int64
	fs      *memfs.FS
	ch      *chain
	clients []*rawClientState
	images  [][]byte
	round   int // write rounds completed (selects the payload stream)
}

func imagePath(i int) string { return fmt.Sprintf("/image%d.bin", i) }

// rawInputs generates the workload's images from the seed.
func rawInputs(spec rawSpec, seed int64) [][]byte {
	n := nClients
	if spec.shared {
		n = 1
	}
	images := make([][]byte, n)
	for i := range images {
		images[i] = genImage(seed, uint64(i+1), spec.fileMiB*mib)
	}
	return images
}

// setupRaw is what setup_s times: origin install, chain start, client
// mounts and (warm_hit) cache warm-up.
func setupRaw(cfg config, spec rawSpec, images [][]byte, traced bool) (_ *rawSession, err error) {
	s := &rawSession{spec: spec, seed: cfg.seed, fs: memfs.New(), images: images}
	for i, img := range images {
		content := img
		if spec.write {
			content = make([]byte, len(img)) // the flush must overwrite it
		}
		if err := s.fs.WriteFile(imagePath(i), content); err != nil {
			return nil, err
		}
	}
	if s.ch, err = startChain(cfg.workdir, chainOpts{fs: s.fs, banks: spec.banks, sets: spec.sets, traced: traced}); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	for c := 0; c < nClients; c++ {
		rc, err := s.ch.dialRaw(c)
		if err != nil {
			return nil, err
		}
		st := &rawClientState{rc: rc, rnd: newRNG(cfg.seed, uint64(1000+c)), lat: make([]int64, 0, 1<<20)}
		s.clients = append(s.clients, st)
		idx := c
		if spec.shared {
			idx = 0
		}
		st.img = images[idx]
		if st.fh, _, err = rc.nfs.Lookup(rc.root, imagePath(idx)[1:]); err != nil {
			return nil, err
		}
	}
	if spec.warm {
		// Each client fills its share of the cache; nothing is timed
		// or counted as an attempt, but a wrong byte still aborts.
		var wg sync.WaitGroup
		errs := make([]error, nClients)
		for c, st := range s.clients {
			wg.Add(1)
			go func(c int, st *rawClientState) {
				defer wg.Done()
				for b := c; b < spec.blocks(); b += nClients {
					data, _, err := st.rc.nfs.Read(st.fh, uint64(b)*blockSize, blockSize)
					if err == nil && !bytes.Equal(data, st.img[b*blockSize:(b+1)*blockSize]) {
						err = fmt.Errorf("warm-up read of block %d returned wrong bytes", b)
					}
					if err != nil {
						errs[c] = err
						return
					}
				}
			}(c, st)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *rawSession) Close() {
	for _, st := range s.clients {
		st.rc.Close()
	}
	s.ch.Close()
}

// step issues one client op and checks its payload.
func (st *rawClientState) step(spec rawSpec) {
	blocks := len(st.img) / blockSize
	b := st.next
	if spec.random {
		b = st.rnd.intn(blocks)
	} else {
		st.next = (st.next + 1) % blocks
	}
	want := st.img[b*blockSize : (b+1)*blockSize]
	var ns int64
	var err error
	if spec.write {
		ns, err = st.rc.write(st.fh, uint64(b)*blockSize, want)
	} else {
		var data []byte
		data, ns, err = st.rc.read(st.fh, uint64(b)*blockSize)
		if err == nil && !bytes.Equal(data, want) {
			err = errPayload
		}
	}
	st.ops++
	if err != nil {
		st.failed++
	}
	st.lat = append(st.lat, ns)
}

var errPayload = fmt.Errorf("payload differs from the generated bytes")

// windowResult is one window (READ workloads) or round (write_flush).
type windowResult struct {
	sample
	ops               int // client READs or WRITEs
	attempted, failed int // ops plus, for write_flush, the origin blocks compared after the flush
	p99us             float64
	trace             *traceWindow // traced sessions only
}

// window runs every client closed-loop until the deadline (d > 0) or
// until each has done perClient ops (perClient > 0), whichever comes
// first. For write_flush one call is one round: absorb every block,
// Proxy.Flush, compare the origin's files with the payload byte for byte.
func (s *rawSession) window(d time.Duration, perClient int) (windowResult, error) {
	spec := s.spec
	if spec.write {
		d, perClient = 0, spec.blocks()
		for c, st := range s.clients {
			// A fresh payload per round, so a flush that silently kept
			// the previous round's bytes is a mismatch.
			r := newRNG(s.seed, uint64(100+s.round*nClients+c))
			r.fill(st.img)
			st.next = 0
		}
		s.round++
	}
	for _, st := range s.clients {
		st.lat, st.ops, st.failed = st.lat[:0], 0, 0
	}
	var mark traceMark
	if s.ch.rec != nil {
		mark = s.ch.markTrace()
	}
	runtime.GC() // start every window from the same heap state
	before := s.ch.readCost()
	deadline := before.at.Add(d)
	var wg sync.WaitGroup
	for _, st := range s.clients {
		wg.Add(1)
		go func(st *rawClientState) {
			defer wg.Done()
			for (perClient <= 0 || st.ops < perClient) && (d <= 0 || time.Now().Before(deadline)) {
				st.step(spec)
			}
		}(st)
	}
	wg.Wait()
	loopEnd := time.Now()
	var res windowResult
	if s.ch.rec != nil {
		res.trace = s.ch.cutTrace(mark)
	}
	var flushSeconds float64
	if spec.write {
		if err := s.ch.client.Proxy.Flush(); err != nil {
			return res, fmt.Errorf("flush: %w", err)
		}
		flushSeconds = time.Since(loopEnd).Seconds()
	}
	after := s.ch.readCost()

	var all []int64
	for _, st := range s.clients {
		res.ops += st.ops
		res.failed += st.failed
		all = append(all, st.lat...)
	}
	res.attempted = res.ops
	sortInt64(all)
	ops := float64(res.ops)
	user := ops * blockSize
	res.p99us = percentileUs(all, 0.99)
	res.sample = costSample(before, after, ops, user)
	res.opsPerS = ops / loopEnd.Sub(before.at).Seconds()
	res.p50us = percentileUs(all, 0.50)
	res.bulkMiBps = user / mib / loopEnd.Sub(before.at).Seconds()
	if spec.write {
		res.bulkMiBps = user / mib / flushSeconds
		attempted, failed, err := s.verifyOrigin()
		if err != nil {
			return res, err
		}
		res.attempted += attempted
		res.failed += failed
	}
	return res, nil
}

// verifyOrigin compares the origin's files with the last round's
// payload. Every block is one more checked operation: a flush that lost
// or corrupted it fails.
func (s *rawSession) verifyOrigin() (attempted, failed int, err error) {
	for c, st := range s.clients {
		got, err := s.fs.ReadFile(imagePath(c))
		if err != nil {
			return attempted, failed, err
		}
		for b := 0; b < s.spec.blocks(); b++ {
			attempted++
			lo, hi := b*blockSize, (b+1)*blockSize
			if hi > len(got) || !bytes.Equal(got[lo:hi], st.img[lo:hi]) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// traceMark remembers where a traced window starts in the recorder and
// in both proxies' rings.
type traceMark struct {
	own        int
	hop0, hop1 uint64
}

func (c *chain) markTrace() traceMark {
	c.rec.mu.Lock()
	n := len(c.rec.spans)
	c.rec.mu.Unlock()
	return traceMark{own: n, hop0: c.client.Tracer.Total(), hop1: c.server.Tracer.Total()}
}

// cutTrace collects everything recorded since mark. Server-proxy
// records count only when they continue a client-proxy trace (hop 1):
// write-backs the proxy starts on its own arrive there as hop 0.
func (c *chain) cutTrace(m traceMark) *traceWindow {
	c.rec.mu.Lock()
	own := append([]span(nil), c.rec.spans[m.own:]...)
	c.rec.mu.Unlock()
	w := &traceWindow{own: own, hop0: drainSince(c.client.Tracer, m.hop0)}
	for _, tr := range drainSince(c.server.Tracer, m.hop1) {
		if tr.Hop == 1 {
			w.hop1 = append(w.hop1, tr)
		}
	}
	return w
}

// nSetups is how many times a run sets its chain up; setup_s is their
// median and the last one is measured on.
const nSetups = 7

// nWindows is the number of equal windows a timed phase is cut into.
// The first is discarded: the first pass in a process ran up to 2x slow.
const nWindows = 20

// pair runs the ping-pong reference for a quarter of d and then one
// window for the rest (one round, for write_flush), and returns the
// window with its reference.
func (s *rawSession) pair(ref *pingPong, d time.Duration) (windowResult, error) {
	r, err := ref.run(d / 4)
	if err != nil {
		return windowResult{}, fmt.Errorf("ping-pong reference: %w", err)
	}
	w, err := s.window(d*3/4, 0)
	w.ref = r
	return w, err
}

func runRaw(cfg config, spec rawSpec) (result, error) {
	images := rawInputs(spec, cfg.seed)
	if cfg.trace {
		return runRawTraced(cfg, spec, images)
	}
	var res result
	ref, err := newPingPong()
	if err != nil {
		return res, err
	}
	defer ref.Close()
	var s *rawSession
	for i := 0; i < nSetups; i++ {
		if s != nil {
			s.Close()
		}
		debug.FreeOSMemory() // every set-up starts from the same heap: collected and returned to the OS
		err := res.setups.add(ref, refSlice(cfg)/2, func() (err error) {
			s, err = setupRaw(cfg, spec, images, false)
			return err
		})
		if err != nil {
			return res, err
		}
	}
	defer s.Close()

	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		if spec.write {
			// Rounds have a fixed size; run them until the time is used.
			if i >= 2 && time.Since(start).Seconds() >= cfg.seconds {
				break
			}
		} else if i == nWindows {
			break
		}
		w, err := s.pair(ref, time.Duration(cfg.seconds/nWindows*float64(time.Second)))
		if err != nil {
			return res, err
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		if i > 0 {
			samples = append(samples, w.sample)
		}
	}
	res.Metrics = endToEnd(samples, res.setups.scaled)
	res.windows = samples
	return res, nil
}

// runRawTraced is the -trace 1 run of a loopback workload: untraced
// windows paired with bare sunrpc echo windows (proxy.echo_ratio, tail
// latency), one traced window on a fresh chain (counts, budget, spans),
// then this workload's layer probes.
func runRawTraced(cfg config, spec rawSpec, images [][]byte) (result, error) {
	var res result
	m := newPerLayer()
	untracedRate, err := untracedReference(cfg, spec, images, m, &res)
	if err != nil {
		return res, err
	}
	tracedRate, err := tracedWindow(cfg, spec, images, m, &res)
	if err != nil {
		return res, err
	}
	m.put("trace.overhead_pct", 100*(1-ratio(tracedRate, untracedRate)))
	if err := runProbes(cfg, m); err != nil {
		return res, err
	}
	processMetrics(m)
	res.Metrics = m
	return res, nil
}

// untracedReference spends 40% of the run on 1+2 rounds of a bare sunrpc
// echo window, a ping-pong slice and a workload window, and returns the
// workload's ops/s. The absolute timings come from here.
func untracedReference(cfg config, spec rawSpec, images [][]byte, m metrics, res *result) (float64, error) {
	s, err := setupRaw(cfg, spec, images, false)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	echo, err := newEchoRig()
	if err != nil {
		return 0, err
	}
	defer echo.Close()
	ref, err := newPingPong()
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	const pairs = 3
	pair := time.Duration(0.4 * cfg.seconds / pairs * float64(time.Second))
	var ratios, rates, p99s []float64
	var kept []sample
	var latencies int
	for i := 0; i < pairs; i++ {
		e, err := echo.run(pair / 4)
		if err != nil {
			return 0, err
		}
		w, err := s.pair(ref, pair*3/4)
		if err != nil {
			return 0, err
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		if i > 0 {
			ratios = append(ratios, ratio(w.opsPerS, e.opsPerS))
			rates = append(rates, w.opsPerS)
			p99s = append(p99s, w.p99us)
			kept = append(kept, w.sample)
			latencies += w.ops
		}
	}
	putTimings(m, absolute, kept)
	m.put("proxy.echo_ratio", median(ratios))
	m.put("client.samples", float64(latencies))
	if spec.write {
		m.put("client.write_p99_us", median(p99s))
	} else {
		m.put("client.read_p99_us", median(p99s))
	}
	return median(rates), nil
}

// tracedWindow spends a quarter of the run on one traced window on a
// fresh chain (for write_flush the counters also cover the flush that
// follows it), and returns the window's ops/s.
func tracedWindow(cfg config, spec rawSpec, images [][]byte, m metrics, res *result) (float64, error) {
	t, err := setupRaw(cfg, spec, images, true)
	if err != nil {
		return 0, err
	}
	defer t.Close()
	before := t.ch.readCounters()
	w, err := t.window(time.Duration(cfg.seconds/4*float64(time.Second)), maxTracedOps/nClients)
	if err != nil {
		return 0, err
	}
	after := t.ch.readCounters()
	res.Attempted += w.attempted
	res.Failed += w.failed
	ops, writes := float64(w.ops), 0.0
	if spec.write {
		writes = ops
	}
	countMetrics(m, before, after, ops, ops*blockSize, writes)
	return w.opsPerS, traceMetrics(cfg, m, *w.trace)
}

// traceMetrics reports the window's latency budget per client op and
// writes the span file when asked to.
func traceMetrics(cfg config, m metrics, w traceWindow) error {
	b := computeBudget(w)
	per := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(b.ops)) }
	m.put("trace.ops", float64(b.ops))
	m.put("trace.client_mean_us", per(b.clientTotal))
	m.put("trace.client_self_us", per(b.clientSelf))
	m.put("trace.hop0_transport_us", per(b.hop0Net))
	m.put("trace.hop0_self_us", per(b.hop0Self))
	m.put("trace.hop0_block_cache_us", per(b.hop0Block))
	m.put("trace.hop0_meta_us", per(b.hop0Meta))
	m.put("trace.tunnel_transport_us", per(b.tunnelNet))
	m.put("trace.hop1_self_us", per(b.hop1Self))
	m.put("trace.origin_transport_us", per(b.originNet))
	m.put("trace.origin_fs_us", per(b.originFS))
	if cfg.traceOut != "" {
		return writeSpans(cfg.traceOut, buildTree(w))
	}
	return nil
}

func processMetrics(m metrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.put("process.peak_rss_mib", peakRSSMiB())
	m.put("process.gc_cpu_fraction", ms.GCCPUFraction)
}
