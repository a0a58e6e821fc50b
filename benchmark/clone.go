package main

// wan_clone: the paper's §4.3 scenario. Golden VM images sit on an image
// server across simnet.WAN() (30 ms RTT, 1.75 MB/s), tunnelled; the
// compute server's client proxy has a block cache, a file cache and the
// file channel; guests go through gvfs.Session with its page cache. A
// cold pass instantiates every image, a warm pass with fresh sessions
// does it again, then Proxy.WriteBack pushes the session's dirty state.

import (
	"bytes"
	"fmt"
	"path"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	gvfs "gvfs"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/obs"
	"gvfs/internal/pagecache"
	"gvfs/internal/vm"
)

type cloneSpec struct {
	images      int
	memMiB      int // memory state per image, at the paper's 92% zero pages, with its .meta
	diskMiB     int
	bootExtents int // seeded 64 KiB extents read from the disk after the clone
	redoKiB     int // redo-log bytes written per instantiation, in 8 KiB writes
}

const extentSize = 64 << 10

func cloneSizes(smoke bool) cloneSpec {
	if smoke {
		return cloneSpec{images: 1, memMiB: 1, diskMiB: 4, bootExtents: 1, redoKiB: 16}
	}
	return cloneSpec{images: 2, memMiB: 8, diskMiB: 32, bootExtents: 16, redoKiB: 512}
}

// cloneInputs is everything generated from the seed.
type cloneInputs struct {
	spec    cloneSpec
	vms     []vm.Spec
	disks   [][]byte  // Spec.GenerateDisk() per image, the reference for boot reads
	extents [][]int64 // boot extent offsets per image
	seed    int64
}

func newCloneInputs(spec cloneSpec, seed int64) *cloneInputs {
	in := &cloneInputs{spec: spec, seed: seed}
	for i := 0; i < spec.images; i++ {
		v := vm.Spec{Name: fmt.Sprintf("img%d", i), MemoryBytes: uint64(spec.memMiB * mib),
			DiskBytes: uint64(spec.diskMiB * mib), Seed: seed*64 + int64(i)}
		in.vms = append(in.vms, v)
		in.disks = append(in.disks, v.GenerateDisk())
		// Distinct extents, so each boot read of the cold pass is cold.
		r := newRNG(seed, uint64(200+i))
		slots := spec.diskMiB * mib / extentSize
		seen := make(map[int]bool)
		var offs []int64
		for len(offs) < spec.bootExtents {
			if s := r.intn(slots); !seen[s] {
				seen[s] = true
				offs = append(offs, int64(s)*extentSize)
			}
		}
		in.extents = append(in.extents, offs)
	}
	return in
}

func goldenDir(i int) string { return fmt.Sprintf("/images/g%d", i) }

func cloneDir(pass string, i int) string { return fmt.Sprintf("/clones/%s-%d", pass, i) }

// redoPayload is the redo-log content of one instantiation.
func (in *cloneInputs) redoPayload(pass string, i int) []byte {
	stream := uint64(300 + 2*i)
	if pass == "warm" {
		stream++
	}
	return genImage(in.seed, stream, in.spec.redoKiB<<10)
}

type cloneSession struct {
	in *cloneInputs
	fs *memfs.FS
	ch *chain

	mu        sync.Mutex
	attempted int
	failed    int
	pages     pagecache.Stats // summed over closed sessions
	readLat   []int64         // boot-extent read latencies
}

// setupClone is what setup_s times: golden image install (memory state,
// zero map and file-channel meta-data, disk) and chain start.
func setupClone(cfg config, in *cloneInputs, traced bool) (*cloneSession, error) {
	s := &cloneSession{in: in, fs: memfs.New()}
	for i, v := range in.vms {
		if err := vm.InstallImage(s.fs, goldenDir(i), v); err != nil {
			return nil, err
		}
	}
	var err error
	// 64 MiB block cache: the boot extents and redo logs fit many times over.
	s.ch, err = startChain(cfg.workdir, chainOpts{fs: s.fs, banks: 8, sets: 64, wan: true, traced: traced, smoke: cfg.smoke})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *cloneSession) Close() { s.ch.Close() }

func (s *cloneSession) count(ok bool) {
	s.mu.Lock()
	s.attempted++
	if !ok {
		s.failed++
	}
	s.mu.Unlock()
}

// guestOp records one guest-level call as a client.op span when traced.
func (s *cloneSession) guestOp(client int, proc string, t0 time.Time) {
	if rec := s.ch.rec; rec != nil {
		rec.add(span{Name: spanClientOp, Proc: proc, Client: client, Start: rec.since(t0), Dur: time.Since(t0).Nanoseconds()})
	}
}

// stepTimes is how one instantiation's time splits.
type stepTimes struct{ clone, boot, redo, total float64 }

// instantiate is one guest coming up on image i: clone.Clone (config
// copy, memory state through the file channel, disk symlink, resume),
// the seeded boot read checked against Spec.GenerateDisk(), and the
// redo-log writes.
func (s *cloneSession) instantiate(sess *gvfs.Session, client int, pass string, i int) (stepTimes, error) {
	var st stepTimes
	start := time.Now()
	res, err := clone.Clone(sess, clone.Options{GoldenDir: goldenDir(i), CloneDir: cloneDir(pass, i),
		Name: s.in.vms[i].Name, User: fmt.Sprintf("user%d", i), KeepVM: true})
	s.guestOp(client, "clone", start)
	s.count(err == nil)
	if err != nil {
		return st, err
	}
	defer res.VM.Close()
	st.clone = time.Since(start).Seconds()

	t := time.Now()
	buf := make([]byte, extentSize)
	for _, off := range s.in.extents[i] {
		t0 := time.Now()
		n, err := res.VM.Disk.ReadAt(buf, off)
		s.guestOp(client, "boot_read", t0)
		s.mu.Lock()
		s.readLat = append(s.readLat, time.Since(t0).Nanoseconds())
		s.mu.Unlock()
		s.count(err == nil && n == extentSize && bytes.Equal(buf, s.in.disks[i][off:off+extentSize]))
	}
	st.boot = time.Since(t).Seconds()

	t = time.Now()
	redo, err := res.VM.OpenRedoLog()
	if err != nil {
		s.count(false)
		return st, err
	}
	payload := s.in.redoPayload(pass, i)
	for off := 0; off < len(payload); off += blockSize {
		t0 := time.Now()
		_, err := redo.WriteAt(payload[off:off+blockSize], int64(off))
		s.guestOp(client, "redo_write", t0)
		s.count(err == nil)
	}
	st.redo = time.Since(t).Seconds()
	st.total = time.Since(start).Seconds()
	return st, nil
}

// pass instantiates every image once, client c taking images c, c+2, …
// through a fresh session (empty page cache). It returns the wall time
// and each instantiation's split.
func (s *cloneSession) pass(name string, clients int) (float64, []stepTimes, error) {
	steps := make([]stepTimes, s.in.spec.images)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: s.ch.client.Addr, Export: "/", Cred: cred(), PageCachePages: 4096})
			if err != nil {
				errs[c] = err
				return
			}
			for i := c; i < s.in.spec.images; i += clients {
				if steps[i], err = s.instantiate(sess, c, name, i); err != nil {
					errs[c] = err
					break
				}
			}
			ps := sess.PageCacheStats()
			s.mu.Lock()
			s.pages.Hits += ps.Hits
			s.pages.Misses += ps.Misses
			s.mu.Unlock()
			if err := sess.Close(); err != nil && errs[c] == nil {
				errs[c] = err
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("%s pass: %w", name, err)
		}
	}
	return time.Since(start).Seconds(), steps, nil
}

// writeBack pushes the session's dirty state to the image server and
// compares every redo log at the origin with what was written.
func (s *cloneSession) writeBack(passes ...string) (float64, error) {
	t0 := time.Now()
	if err := s.ch.client.Proxy.WriteBack(); err != nil {
		return 0, fmt.Errorf("write-back: %w", err)
	}
	seconds := time.Since(t0).Seconds()
	for _, pass := range passes {
		for i, v := range s.in.vms {
			got, err := s.fs.ReadFile(path.Join(cloneDir(pass, i), v.Name+".redo"))
			want := s.in.redoPayload(pass, i)
			for off := 0; off < len(want); off += blockSize {
				s.count(err == nil && off+blockSize <= len(got) && bytes.Equal(got[off:off+blockSize], want[off:off+blockSize]))
			}
		}
	}
	return seconds, nil
}

// guestBytes is the payload one instantiation delivers to or accepts
// from the guest: the whole memory state, the boot extents, the redo log.
func (in *cloneInputs) guestBytes() float64 {
	return float64(in.spec.memMiB*mib + in.spec.bootExtents*extentSize + in.spec.redoKiB<<10)
}

func medianOf(steps []stepTimes, f func(stepTimes) float64) float64 {
	v := make([]float64, len(steps))
	for i, st := range steps {
		v[i] = f(st)
	}
	return median(v)
}

func runClone(cfg config) (result, error) {
	in := newCloneInputs(cloneSizes(cfg.smoke), cfg.seed)
	if cfg.trace {
		return runCloneTraced(cfg, in)
	}
	var res result
	var samples []sample
	ref, err := newPingPong()
	if err != nil {
		return res, err
	}
	defer ref.Close()
	// One round is a fixed ~9 s of link time, so -seconds only decides
	// how many rounds there are; every round needs a fresh (cold) chain,
	// which is also where the repeated set-ups come from.
	rounds := int(cfg.seconds / 10)
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < nSetups-1+rounds; r++ {
		debug.FreeOSMemory() // every set-up starts from the same heap: collected and returned to the OS
		var s *cloneSession
		err := res.setups.add(ref, refSlice(cfg)/2, func() (err error) {
			s, err = setupClone(cfg, in, false)
			return err
		})
		if err != nil {
			return res, err
		}
		if r < nSetups-1 {
			s.Close()
			continue
		}
		smp, err := s.round(ref, refSlice(cfg))
		res.Attempted += s.attempted
		res.Failed += s.failed
		s.Close()
		if err != nil {
			return res, err
		}
		samples = append(samples, smp)
	}
	res.Metrics = endToEnd(samples, res.setups.scaled)
	res.windows = samples
	return res, nil
}

// round is cold pass, warm pass and write-back on a fresh chain, with a
// reference slice before and after. On this workload an "op" is one
// instantiation and the costs cover the whole round; the rate is the
// warm pass's, the median latency the cold pass's median instantiation,
// the bulk rate the write-back's. Times are compared with the ping-pong
// over the WAN link, CPU with the mean of the two loopback slices (a
// round lasts 9 s, long enough for the host to change under it).
func (s *cloneSession) round(ref *pingPong, slice time.Duration) (sample, error) {
	r, err := ref.run(slice)
	if err != nil {
		return sample{}, fmt.Errorf("ping-pong reference: %w", err)
	}
	runtime.GC()
	before := s.ch.readCost()
	_, cold, err := s.pass("cold", nClients)
	if err != nil {
		return sample{}, err
	}
	warmSeconds, _, err := s.pass("warm", nClients)
	if err != nil {
		return sample{}, err
	}
	flushSeconds, err := s.writeBack("cold", "warm")
	if err != nil {
		return sample{}, err
	}
	n := float64(s.in.spec.images)
	smp := costSample(before, s.ch.readCost(), 2*n, 2*n*s.in.guestBytes())
	smp.opsPerS = n / warmSeconds
	smp.p50us = medianOf(cold, func(st stepTimes) float64 { return st.total }) * 1e6
	smp.bulkMiBps = 2 * n * float64(s.in.spec.redoKiB) / 1024 / flushSeconds
	after, err := ref.run(slice)
	if err != nil {
		return sample{}, fmt.Errorf("ping-pong reference: %w", err)
	}
	r.cpuPerGiB = (r.cpuPerGiB + after.cpuPerGiB) / 2
	smp.ref = r.overLink(s.ch.link.Profile())
	return smp, nil
}

// runCloneTraced is the -trace 1 run: one client, one image, cold then
// warm on a traced chain, then the write-back and the layer probes.
func runCloneTraced(cfg config, in *cloneInputs) (result, error) {
	var res result
	m := newPerLayer()
	one := *in
	one.spec.images = 1
	one.vms, one.disks, one.extents = in.vms[:1], in.disks[:1], in.extents[:1]
	s, err := setupClone(cfg, &one, true)
	if err != nil {
		return res, err
	}
	defer s.Close()
	ref, err := newPingPong()
	if err != nil {
		return res, err
	}
	defer ref.Close()
	r, err := ref.run(refSlice(cfg))
	if err != nil {
		return res, fmt.Errorf("ping-pong reference: %w", err)
	}

	cpu0 := cpuSeconds()
	before := s.ch.readCounters()
	mark := s.ch.markTrace()
	_, cold, err := s.pass("cold", 1)
	if err != nil {
		return res, err
	}
	coldTrace := s.ch.cutTrace(mark)
	mid := s.ch.readCounters()
	_, warm, err := s.pass("warm", 1)
	if err != nil {
		return res, err
	}
	window := s.ch.cutTrace(mark)
	afterWarm := s.ch.readCounters()
	guestOps := float64(s.attempted) // every clone, boot extent and redo write so far
	flushSeconds, err := s.writeBack("cold", "warm")
	if err != nil {
		return res, err
	}
	after := s.ch.readCounters()
	putTimings(m, absolute, []sample{{
		userBytes: 2 * one.guestBytes(),
		cpu:       cpuSeconds() - cpu0,
		opsPerS:   1 / warm[0].total,
		p50us:     cold[0].total * 1e6,
		bulkMiBps: 2 * float64(one.spec.redoKiB) / 1024 / flushSeconds,
		ref:       r.overLink(s.ch.link.Profile()),
	}})
	res.Attempted, res.Failed = s.attempted, s.failed

	writes := 2 * float64(one.spec.redoKiB<<10) / blockSize
	countMetrics(m, before, after, guestOps, 2*one.guestBytes(), writes)
	m.put("pagecache.hit_ratio", ratio(float64(s.pages.Hits), float64(s.pages.Hits+s.pages.Misses)))
	m.put("proxy.wan_rpcs_per_clone_cold", float64(mid.serverCalls-before.serverCalls))
	m.put("proxy.wan_rpcs_per_clone_warm", float64(afterWarm.serverCalls-mid.serverCalls))
	sortInt64(s.readLat)
	m.put("client.read_p99_us", percentileUs(s.readLat, 0.99))
	m.put("client.samples", float64(len(s.readLat)))

	m.put("clone.cold_s", cold[0].total)
	m.put("clone.warm_s", warm[0].total)
	m.put("clone.session_flush_s", flushSeconds)
	// The memory state is what the proxy serves through its meta-data
	// handling (file channel, file cache, zero filter); the rest of
	// clone.Clone is configuration: copy, mkdir, symlink, lookups.
	var memNs int64
	for _, tr := range coldTrace.hop0 {
		for _, sp := range tr.Spans {
			if sp.Layer == obs.LayerFileCache || sp.Layer == obs.LayerZeroFilter {
				memNs += tr.DurNs
				break
			}
		}
	}
	m.put("clone.memstate_s", float64(memNs)/1e9)
	m.put("clone.config_s", cold[0].clone-float64(memNs)/1e9)
	m.put("clone.disk_boot_s", cold[0].boot)
	m.put("clone.redo_write_s", cold[0].redo)
	if err := traceMetrics(cfg, m, *window); err != nil {
		return res, err
	}
	if err := runProbes(cfg, m); err != nil {
		return res, err
	}
	processMetrics(m)
	res.Metrics = m
	return res, nil
}
