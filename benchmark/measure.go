package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// newMetrics returns every declared metric at zero with its unit.
func newMetrics(decls []decl) metrics {
	m := metrics{}
	for _, d := range decls {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

// put sets a declared metric, keeping its declared unit.
func (m metrics) put(name string, v float64) {
	e, ok := m[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	e.Value = v
	m[name] = e
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs returns the p-quantile of sorted nanosecond samples in
// microseconds.
func percentileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func sortInt64(v []int64) { sort.Slice(v, func(a, b int) bool { return v[a] < v[b] }) }

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// usage is a reading of the process-wide cost counters.
type usage struct {
	at      time.Time
	cpu     float64
	mallocs uint64
	bytes   uint64 // cumulative heap bytes allocated
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// sample is what one timed window (or round) measured: what its client
// operations cost, as counter differences, how fast they went, and how
// fast the ping-pong reference went just before.
type sample struct {
	ops, userBytes float64 // client operations and the payload bytes they moved
	cpu            float64 // process CPU seconds
	mallocs        float64 // process heap allocations
	allocBytes     float64 // process heap bytes allocated
	originCalls    float64 // calls that reached the origin file system
	frames         float64 // tunnel frames, both directions
	upstreamBytes  float64 // plaintext tunnel bytes, both directions

	opsPerS   float64
	p50us     float64
	bulkMiBps float64 // user MiB/s of the bulk-transfer phase (see README)

	ref reference
}

func (s sample) cpuPerGiB() float64 { return ratio(s.cpu, s.userBytes/(1<<30)) }

// timing is one time or rate of a window.
type timing struct {
	name string
	of   func(sample) float64
}

// relative are the end-to-end timings: each window's figure divided by
// the same figure of its reference slice, then the median over the kept
// windows. absolute are the figures themselves; they describe the host
// as much as the program and are printed, and reported by traced runs as
// layer metrics, but carry no bound.
var (
	relative = []timing{
		{"ops_vs_pingpong", func(s sample) float64 { return ratio(s.opsPerS, s.ref.opsPerS) }},
		{"p50_vs_pingpong", func(s sample) float64 { return ratio(s.p50us, s.ref.p50us) }},
		{"bulk_vs_pingpong", func(s sample) float64 { return ratio(s.bulkMiBps, s.ref.mibPerS) }},
		{"cpu_vs_pingpong", func(s sample) float64 { return ratio(s.cpuPerGiB(), s.ref.cpuPerGiB) }},
	}
	absolute = []timing{
		{"client.ops_per_s", func(s sample) float64 { return s.opsPerS }},
		{"client.op_p50_us", func(s sample) float64 { return s.p50us }},
		{"client.mib_per_s", func(s sample) float64 { return s.bulkMiBps }},
		{"process.cpu_s_per_gib", sample.cpuPerGiB},
		{"pingpong.ops_per_s", func(s sample) float64 { return s.ref.opsPerS }},
		{"pingpong.rtt_p50_us", func(s sample) float64 { return s.ref.p50us }},
		{"pingpong.cpu_s_per_gib", func(s sample) float64 { return s.ref.cpuPerGiB }},
	}
)

// endToEnd reduces a run's samples (first window already dropped) to
// the end-to-end metrics. A count is the counter's difference over all
// kept windows divided by all their operations, so a cost paid only in
// some windows (an eviction burst, a journal checkpoint) is in it. Three
// of them carry a "+1" because the bare quantity is legitimately zero on
// some workload (nothing reaches the origin on warm_hit): the bound then
// acts as an absolute one there, 3% of 1.0 being 0.03 calls per op.
func endToEnd(samples []sample, setups []float64) metrics {
	m := newMetrics(endToEndDecl)
	m.put("setup_s", median(setups))
	var t sample
	for _, s := range samples {
		t.ops += s.ops
		t.userBytes += s.userBytes
		t.mallocs += s.mallocs
		t.allocBytes += s.allocBytes
		t.originCalls += s.originCalls
		t.frames += s.frames
		t.upstreamBytes += s.upstreamBytes
	}
	m.put("allocs_per_op", ratio(t.mallocs, t.ops))
	m.put("alloc_bytes_per_op", ratio(t.allocBytes, t.ops))
	m.put("origin_calls_per_op_plus1", 1+ratio(t.originCalls, t.ops))
	m.put("upstream_frames_per_op_plus1", 1+ratio(t.frames, t.ops))
	m.put("upstream_bytes_per_user_byte_plus1", 1+ratio(t.upstreamBytes, t.userBytes))
	putTimings(m, relative, samples)
	return m
}

// putTimings sets each timing to its median over the samples.
func putTimings(m metrics, ts []timing, samples []sample) {
	for _, tm := range ts {
		m.put(tm.name, median(windowValues(samples, tm.of)))
	}
}

func windowValues(samples []sample, of func(sample) float64) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = of(s)
	}
	return v
}

// printWindows shows how far the windows of one run lie apart, and the
// absolute figures behind the relative ones: the quartiles of every
// timing over the kept windows.
func printWindows(samples []sample) {
	fmt.Printf("over the %d kept windows (absolute figures are this host's at this moment and carry no bound):\n", len(samples))
	for _, tm := range append(append([]timing(nil), relative...), absolute...) {
		v := windowValues(samples, tm.of)
		if len(v) < 4 { // too few for quartiles: wan_clone's rounds
			fmt.Printf("  %-38s %.6g\n", tm.name, v)
			continue
		}
		q1, q2, q3 := quartiles(v)
		fmt.Printf("  %-38s quartiles %12.6g / %12.6g / %12.6g\n", tm.name, q1, q2, q3)
	}
}
