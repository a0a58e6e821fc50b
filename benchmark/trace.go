package main

// The traced run. Every span is recorded from this directory: client.op
// around each nfs3.Client/Session call, client.rpc in a wrapping
// nfs3.Caller that stamps a fresh trace ID into the call verifier, and
// origin.fs in the nfs3.Backend wrapper. The proxies' own trace rings
// (the existing TraceRing option) supply what happened inside each hop;
// they are drained after the window and placed under the client spans
// by trace ID. Spans stay in memory until the window ends.
//
// Proxy trace records carry a duration and span offsets but no wall
// clock, so a hop is centred inside the span that caused it; self times
// depend on durations only and are unaffected by that placement.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

const (
	spanClientOp  = "client.op"
	spanClientRPC = "client.rpc"
	spanOriginFS  = "origin.fs"
)

// span is one line of the -trace-out file.
type span struct {
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // 0 = root
	Trace  uint64 `json:"trace"`  // 0 = not linked to a client op
	Name   string `json:"name"`
	Proc   string `json:"proc,omitempty"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"` // since the traced window's recorder started
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // Dur minus the interval covered by children
}

// recorder collects the benchmark's own spans.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracedCaller is the nfs3.Caller wrapper of the traced run: it stamps
// the trace ID of the client op in flight into the call verifier so
// every hop records its view under the same ID, and records client.rpc.
// One caller serves one client goroutine.
type tracedCaller struct {
	rpc    *sunrpc.Client
	rec    *recorder
	client int
	cur    uint64 // trace ID of the op in flight
}

func (c *tracedCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	t0 := time.Now()
	res, err := c.rpc.CallVerf(prog, vers, proc, cred, sunrpc.TraceContext{ID: c.cur}.EncodeVerf(), args)
	c.rec.add(span{Name: spanClientRPC, Trace: c.cur, Client: c.client,
		Start: c.rec.since(t0), Dur: time.Since(t0).Nanoseconds()})
	return res, err
}

// begin opens a client operation under a fresh trace ID; end records
// client.op around it. They are a pair rather than a closure-taking
// helper so the untraced path allocates nothing per op.
func (c *tracedCaller) begin() { c.cur = c.rec.nextID.Add(1) }

func (c *tracedCaller) end(proc string, t0 time.Time, dur int64) {
	c.rec.add(span{Name: spanClientOp, Proc: proc, Trace: c.cur, Client: c.client,
		Start: c.rec.since(t0), Dur: dur})
}

// budget is the per-op latency budget of a traced window: each field
// is a layer's total self time in nanoseconds over the window.
type budget struct {
	ops         int
	clientTotal int64 // Σ client.op
	clientSelf  int64
	hop0Net     int64 // client.rpc minus the hop-0 handler (RPC substrate + loopback)
	hop0Self    int64
	hop0Block   int64 // block_cache spans at hop 0
	hop0Meta    int64 // zero_filter + file_cache spans at hop 0
	tunnelNet   int64 // hop-0 upstream_rpc minus the hop-1 handler
	hop1Self    int64
	originNet   int64 // hop-1 upstream_rpc minus origin.fs
	originFS    int64
}

// layerTotals sums a hop's trace records: handler time, time per child
// layer, and the interval the children cover together.
type layerTotals struct {
	total, block, meta, upstream, covered int64
}

func sumTraces(traces []obs.Trace) layerTotals {
	var t layerTotals
	for _, tr := range traces {
		t.total += tr.DurNs
		t.covered += coveredNs(tr.Spans)
		for _, s := range tr.Spans {
			switch s.Layer {
			case obs.LayerBlockCache:
				t.block += s.DurNs
			case obs.LayerZeroFilter, obs.LayerFileCache:
				t.meta += s.DurNs
			case obs.LayerUpstream:
				t.upstream += s.DurNs
			}
		}
	}
	return t
}

// coveredNs is the length of the union of the spans' intervals.
func coveredNs(spans []obs.Span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.StartNs, s.StartNs + s.DurNs}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return covered + curHi - curLo
}

// traceWindow is everything one traced window produced.
type traceWindow struct {
	own  []span      // client.op, client.rpc, origin.fs
	hop0 []obs.Trace // client proxy records made inside the window
	hop1 []obs.Trace // server proxy records continuing a hop-0 trace
}

// computeBudget attributes the window's client-op time to layers. A
// layer's self time is its spans' total minus what its children cover.
// With client.rpc spans (raw nfs3.Client workloads) the RPC substrate
// between client and hop 0 is its own line; a gvfs.Session issues its
// RPCs internally, so there it stays inside clientSelf.
func computeBudget(w traceWindow) budget {
	var b budget
	var rpcTotal, originTotal int64
	for _, s := range w.own {
		switch s.Name {
		case spanClientOp:
			b.ops++
			b.clientTotal += s.Dur
		case spanClientRPC:
			rpcTotal += s.Dur
		case spanOriginFS:
			originTotal += s.Dur
		}
	}
	h0, h1 := sumTraces(w.hop0), sumTraces(w.hop1)
	if rpcTotal > 0 {
		b.clientSelf = b.clientTotal - rpcTotal
		b.hop0Net = rpcTotal - h0.total
	} else {
		b.clientSelf = b.clientTotal - h0.total
	}
	b.hop0Self = h0.total - h0.covered
	b.hop0Block = h0.block
	b.hop0Meta = h0.meta
	b.tunnelNet = h0.upstream - h1.total
	b.hop1Self = h1.total - h1.covered
	b.originNet = h1.upstream - originTotal
	b.originFS = originTotal
	return b
}

// buildTree turns the window into one span forest for -trace-out:
// client.op → client.rpc → hop0 → {block_cache, upstream_rpc → hop1 →
// upstream_rpc → origin.fs}. origin.fs spans carry no trace ID (an
// nfs3.Backend call has no context), so each is attached to the
// client.rpc whose interval encloses it; when two clients' calls
// overlap it goes to the latest started. Spans that find no parent stay
// roots with trace 0.
func buildTree(w traceWindow) []span {
	var out []span
	emit := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	centre := func(parent span, dur int64) int64 { return parent.Start + (parent.Dur-dur)/2 }

	byID0 := make(map[uint64]obs.Trace, len(w.hop0))
	for _, tr := range w.hop0 {
		byID0[tr.ID] = tr
	}
	byID1 := make(map[uint64]obs.Trace, len(w.hop1))
	for _, tr := range w.hop1 {
		byID1[tr.ID] = tr
	}
	rpcs := make(map[uint64]span)
	var origins []span
	var ops []span
	for _, s := range w.own {
		switch s.Name {
		case spanClientRPC:
			rpcs[s.Trace] = s
		case spanOriginFS:
			origins = append(origins, s)
		case spanClientOp:
			ops = append(ops, s)
		}
	}
	// Attach each origin.fs span to an enclosing client.rpc.
	originOf := make(map[uint64][]span)
	sort.Slice(origins, func(a, b int) bool { return origins[a].Start < origins[b].Start })
	rpcList := make([]span, 0, len(rpcs))
	for _, r := range rpcs {
		rpcList = append(rpcList, r)
	}
	sort.Slice(rpcList, func(a, b int) bool { return rpcList[a].Start < rpcList[b].Start })
	lo := 0
	var orphans []span
	for _, o := range origins {
		for lo < len(rpcList) && rpcList[lo].Start+rpcList[lo].Dur < o.Start {
			lo++
		}
		best := -1
		for i := lo; i < len(rpcList) && rpcList[i].Start <= o.Start; i++ {
			if rpcList[i].Start+rpcList[i].Dur >= o.Start+o.Dur {
				best = i
			}
		}
		if best < 0 {
			orphans = append(orphans, o)
			continue
		}
		originOf[rpcList[best].Trace] = append(originOf[rpcList[best].Trace], o)
	}

	// addHop emits one proxy record and its layer spans under parent,
	// returning the emitted upstream_rpc spans for the next hop.
	addHop := func(name string, tr obs.Trace, parent span, parentID int) []span {
		hop := span{Parent: parentID, Trace: parent.Trace, Name: name, Proc: tr.Proc,
			Client: parent.Client, Start: centre(parent, tr.DurNs), Dur: tr.DurNs}
		hop.Self = tr.DurNs - coveredNs(tr.Spans)
		hopID := emit(hop)
		var ups []span
		for _, ls := range tr.Spans {
			c := span{Parent: hopID, Trace: parent.Trace, Name: name + "." + ls.Layer, Proc: ls.Outcome,
				Client: parent.Client, Start: hop.Start + ls.StartNs, Dur: ls.DurNs, Self: ls.DurNs}
			c.ID = emit(c)
			if ls.Layer == obs.LayerUpstream {
				ups = append(ups, c)
			}
		}
		return ups
	}
	setSelf := func(id int, self int64) { out[id-1].Self = self }

	for _, op := range ops {
		opID := emit(op)
		rpc, ok := rpcs[op.Trace]
		if !ok {
			setSelf(opID, op.Dur)
			continue
		}
		setSelf(opID, op.Dur-rpc.Dur)
		rpc.Parent = opID
		rpcID := emit(rpc)
		tr0, ok := byID0[op.Trace]
		if !ok || tr0.DurNs > rpc.Dur {
			setSelf(rpcID, rpc.Dur)
			continue
		}
		setSelf(rpcID, rpc.Dur-tr0.DurNs)
		ups0 := addHop("hop0", tr0, rpc, rpcID)
		tr1, ok := byID1[op.Trace]
		if !ok || len(ups0) == 0 || tr1.DurNs > ups0[0].Dur {
			continue
		}
		setSelf(ups0[0].ID, ups0[0].Dur-tr1.DurNs)
		ups1 := addHop("hop1", tr1, ups0[0], ups0[0].ID)
		if len(ups1) == 0 {
			continue
		}
		placed := originOf[op.Trace]
		delete(originOf, op.Trace)
		for _, o := range placed {
			if o.Dur > out[ups1[0].ID-1].Self {
				orphans = append(orphans, o)
				continue
			}
			o.Parent, o.Trace, o.Client = ups1[0].ID, op.Trace, op.Client
			o.Start, o.Self = centre(ups1[0], o.Dur), o.Dur
			emit(o)
			setSelf(ups1[0].ID, out[ups1[0].ID-1].Self-o.Dur)
		}
	}
	// Session-driven windows have no client.rpc: hop trees are roots,
	// linked to each other by the proxy-allocated trace ID.
	if len(rpcs) == 0 {
		for _, tr0 := range w.hop0 {
			root := span{Trace: tr0.ID, Dur: tr0.DurNs}
			ups0 := addHop("hop0", tr0, root, 0)
			if tr1, ok := byID1[tr0.ID]; ok && len(ups0) > 0 && tr1.DurNs <= ups0[0].Dur {
				setSelf(ups0[0].ID, ups0[0].Dur-tr1.DurNs)
				addHop("hop1", tr1, ups0[0], ups0[0].ID)
			}
		}
	}
	// Origin calls whose client op never reached hop 1 in the records.
	for _, left := range originOf {
		orphans = append(orphans, left...)
	}
	for _, o := range orphans {
		o.Self = o.Dur
		emit(o)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drainSince returns the records a tracer committed after it had
// recorded `before` in total (the ring returns oldest first).
func drainSince(t *obs.Tracer, before uint64) []obs.Trace {
	all := t.Traces()
	fresh := t.Total() - before
	if fresh >= uint64(len(all)) {
		return all
	}
	return all[uint64(len(all))-fresh:]
}
