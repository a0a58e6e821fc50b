package proxy_test

// Trace-propagation suite: a session mounted through a two-level proxy
// chain (client proxy -> server proxy -> nfsd) over simnet, with tracing
// and the flight recorder enabled at both hops. The invariant under test
// is the header extension's contract: every RPC the client proxy
// forwards upstream appears in the server proxy's ring under the SAME
// trace ID with the hop count incremented, and per-layer spans land at
// the right hop.

import (
	"bytes"
	"gvfs/internal/stack/stacktest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

func TestTracePropagationAcrossChain(t *testing.T) {
	const slow = 50 * time.Millisecond
	fs := memfs.New()
	content := chaosPattern(32*8192, 3)
	if err := fs.WriteFile("/vm.img", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/stall.img", chaosPattern(4*8192, 4)); err != nil {
		t.Fatal(err)
	}

	// The origin sits behind a link of its own, so a stall there slows
	// the server proxy's own call and not just the client proxy's.
	lan := simnet.NewLink(simnet.Profile{Name: "trace-origin", RTT: time.Millisecond})
	// Rings larger than the test's calls: no recording an exemplar names
	// is overwritten.
	link := simnet.NewLink(simnet.Profile{Name: "trace-lan", RTT: time.Millisecond})
	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS, FS: fs, Link: lan,
		Hops: []stack.ProxyOptions{
			{UpstreamLink: link, TraceRing: 512, FlightRing: 512, SlowThreshold: slow,
				CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 8, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}},
			{ListenLink: link, TraceRing: 512, FlightRing: 512, SlowThreshold: slow},
		},
		Session: gvfs.SessionConfig{Cred: sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "trace"}.Encode()},
	})
	client, server, sess := c.Hops[0], c.Hops[1], c.Session()
	if client.Tracer == nil || server.Tracer == nil {
		t.Fatal("TraceRing > 0 must give both nodes a tracer")
	}

	// Cold read: misses go upstream. Second read: block-cache hits
	// stay at hop 0 and must NOT reach the server's ring.
	for i := 0; i < 2; i++ {
		got, err := sess.ReadFile("/vm.img")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(content) {
			t.Fatalf("read %d bytes, want %d", len(got), len(content))
		}
	}

	clientTraces := client.Tracer.Traces()
	serverTraces := server.Tracer.Traces()
	if len(clientTraces) == 0 || len(serverTraces) == 0 {
		t.Fatalf("empty rings: client=%d server=%d", len(clientTraces), len(serverTraces))
	}

	// Index the client ring; IDs are allocated at hop 0.
	clientByID := make(map[uint64]obs.Trace, len(clientTraces))
	for _, tr := range clientTraces {
		if tr.Hop != 0 {
			t.Errorf("client trace %d at hop %d, want 0", tr.ID, tr.Hop)
		}
		clientByID[tr.ID] = tr
	}

	// Every server-side READ trace must continue a client trace at
	// hop 1 — the propagated context, not a fresh allocation.
	matched := 0
	for _, tr := range serverTraces {
		down, ok := clientByID[tr.ID]
		if !ok {
			continue
		}
		matched++
		if tr.Hop != down.Hop+1 {
			t.Errorf("trace %d: server hop %d, want %d", tr.ID, tr.Hop, down.Hop+1)
		}
		// A LOOKUP the client proxy's table misses goes upstream as the
		// listing of its directory; every other call as itself.
		if tr.Proc != down.Proc && (down.Proc != "LOOKUP" || tr.Proc != "READDIRPLUS") {
			t.Errorf("trace %d: proc %q at hop 1 vs %q at hop 0", tr.ID, tr.Proc, down.Proc)
		}
	}
	if matched == 0 {
		t.Fatal("no trace ID was propagated from client proxy to server proxy")
	}

	// The client ring must show both outcomes of the block-cache
	// layer (cold misses, then warm hits), and upstream spans only on
	// traces that actually went upstream.
	outcomes := map[string]int{}
	for _, tr := range clientTraces {
		for _, sp := range tr.Spans {
			if sp.Layer == obs.LayerBlockCache {
				outcomes[sp.Outcome]++
			}
			if sp.Layer == obs.LayerUpstream && tr.Proc == "READ" {
				if _, ok := clientByID[tr.ID]; !ok {
					t.Errorf("upstream span on unknown trace %d", tr.ID)
				}
			}
		}
	}
	if outcomes["miss"] == 0 || outcomes["hit"] == 0 {
		t.Errorf("block-cache outcomes = %v, want both hits and misses", outcomes)
	}

	// Warm READ traces (block-cache hit) must not have gone upstream.
	for _, tr := range clientTraces {
		var hit, upstream bool
		for _, sp := range tr.Spans {
			hit = hit || (sp.Layer == obs.LayerBlockCache && sp.Outcome == "hit")
			upstream = upstream || sp.Layer == obs.LayerUpstream
		}
		if hit && upstream {
			t.Errorf("trace %d: block-cache hit still produced an upstream span", tr.ID)
		}
	}

	// One stall on the origin's link makes a cold READ slow at both hops.
	// Each hop keeps a slow recording with its span tree, and every
	// exemplar its /metrics publishes resolves to a recording: exemplars
	// are set only where a call is promoted.
	lan.Stall(3 * slow)
	if _, err := sess.ReadFile("/stall.img"); err != nil {
		t.Fatal(err)
	}
	for hop, node := range []*stack.Node{client, server} {
		recs := node.Flight.Recordings()
		slowWithSpans := false
		for _, rec := range recs {
			slowWithSpans = slowWithSpans || (rec.Reason == obs.ReasonSlow && len(rec.Trace.Spans) > 0)
		}
		if !slowWithSpans {
			t.Errorf("hop %d: no slow recording with spans among %d", hop, len(recs))
		}
		var buf bytes.Buffer
		node.Metrics.WritePrometheus(&buf)
		ids := obs.ExtractExemplarTraceIDs(buf.Bytes())
		if len(ids) == 0 {
			t.Errorf("hop %d: /metrics publishes no exemplar", hop)
		}
		for _, s := range ids {
			id, err := strconv.ParseUint(s, 16, 64)
			if _, ok := node.Flight.Resolve(id); err != nil || !ok {
				t.Errorf("hop %d: exemplar %s resolves to no recording", hop, s)
			}
		}
	}
}

// stampingCaller puts the trace ID of the client op in flight into each
// call's verifier, as a traced client does: every hop then records its
// view of the call under that ID.
type stampingCaller struct {
	rpc *sunrpc.Client
	id  uint64
}

func (c *stampingCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	return c.rpc.CallVerf(prog, vers, proc, cred, sunrpc.TraceContext{ID: c.id}.EncodeVerf(), args)
}

// readCountingOrigin counts the READs that reach the origin file system.
type readCountingOrigin struct {
	nfs3.Backend
	reads atomic.Uint64
}

func (o *readCountingOrigin) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	o.reads.Add(1)
	return o.Backend.Read(fh, off, count)
}

// TestTraceTiesColdScanOpsToOrigin: a cold sequential scan through client
// proxy, server proxy and nfsd, every client READ under a trace ID of its
// own. Each op has exactly one hop-0 record. An op that missed has an
// upstream span there, exactly one hop-1 record continuing its ID with an
// upstream span of its own, and exactly one origin READ inside it; an op
// the cache answered has no upstream span, no hop-1 record and no origin
// call. With misses in runs about one op in four is of the first kind.
func TestTraceTiesColdScanOpsToOrigin(t *testing.T) {
	const blocks, bs = 256, 8192
	fs := memfs.New()
	content := chaosPattern(blocks*bs, 5)
	if err := fs.WriteFile("/vm.img", content); err != nil {
		t.Fatal(err)
	}
	origin := &readCountingOrigin{Backend: fs}
	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS, Origin: origin, NoSession: true,
		Hops: []stack.ProxyOptions{
			{TraceRing: 4 * blocks,
				CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 32, Assoc: 4, BlockSize: bs, Policy: cache.WriteBack}},
			{TraceRing: 4 * blocks},
		},
	})
	client, server := c.Hops[0], c.Hops[1]

	conn, err := stack.Dialer(client.Addr, nil, nil)()
	if err != nil {
		t.Fatal(err)
	}
	rpc := sunrpc.NewClient(conn)
	defer rpc.Close()
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "trace"}.Encode()
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	caller := &stampingCaller{rpc: rpc}
	nc := nfs3.NewClient(caller, cred)
	fh, _, err := nc.Lookup(root, "vm.img")
	if err != nil {
		t.Fatal(err)
	}

	originReads := make(map[uint64]uint64, blocks) // trace ID -> origin READs during the op
	for b := uint64(0); b < blocks; b++ {
		caller.id = 1000 + b
		before := origin.reads.Load()
		data, _, err := nc.Read(fh, b*bs, bs)
		if err != nil || !bytes.Equal(data, content[b*bs:(b+1)*bs]) {
			t.Fatalf("READ of block %d: %d bytes, err=%v", b, len(data), err)
		}
		originReads[caller.id] = origin.reads.Load() - before
	}

	upstreamSpans := func(tr obs.Trace) (n int) {
		for _, sp := range tr.Spans {
			if sp.Layer == obs.LayerUpstream {
				n++
			}
		}
		return n
	}
	hop0, hop1 := map[uint64][]obs.Trace{}, map[uint64][]obs.Trace{}
	for _, tr := range client.Tracer.Traces() {
		if tr.Proc == "READ" {
			hop0[tr.ID] = append(hop0[tr.ID], tr)
		}
	}
	for _, tr := range server.Tracer.Traces() {
		if tr.Proc == "READ" {
			hop1[tr.ID] = append(hop1[tr.ID], tr)
		}
	}
	missed := 0
	for id, reads := range originReads {
		if len(hop0[id]) != 1 || hop0[id][0].Hop != 0 {
			t.Fatalf("op %d: hop-0 records %+v, want exactly one", id, hop0[id])
		}
		switch up := upstreamSpans(hop0[id][0]); {
		case up == 0: // the cache answered
			if reads != 0 || len(hop1[id]) != 0 {
				t.Errorf("op %d was a hit at hop 0 but has %d origin READs and %d hop-1 records", id, reads, len(hop1[id]))
			}
		case up == 1:
			missed++
			if reads != 1 || len(hop1[id]) != 1 {
				t.Errorf("op %d missed at hop 0: %d origin READs and %d hop-1 records, want one of each", id, reads, len(hop1[id]))
			} else if tr := hop1[id][0]; tr.Hop != 1 || upstreamSpans(tr) != 1 || tr.DurNs > hop0[id][0].DurNs {
				t.Errorf("op %d: hop-1 record %+v does not sit under the hop-0 one", id, tr)
			}
		default:
			t.Errorf("op %d: %d upstream spans at hop 0", id, up)
		}
	}
	// Block 0 alone, then 1..3, then runs of four.
	if want := 2 + (blocks-4)/4; missed != want {
		t.Errorf("%d of %d ops reached the origin, want %d", missed, blocks, want)
	}
	if len(hop1) != missed {
		t.Errorf("%d trace IDs at hop 1, %d ops missed", len(hop1), missed)
	}
}

// TestTraceJoinOutcome: a READ that waited for a run ahead covering its
// block reports the wait as block_cache/join — not as a hit that took a
// round trip — and, having fetched nothing itself, has no upstream span.
func TestTraceJoinOutcome(t *testing.T) {
	joined := 0
	for _, tr := range joinHeldRun(t, false) {
		var join, hit, upstream bool
		for _, sp := range tr.Spans {
			join = join || (sp.Layer == obs.LayerBlockCache && sp.Outcome == "join")
			hit = hit || (sp.Layer == obs.LayerBlockCache && sp.Outcome == "hit")
			upstream = upstream || sp.Layer == obs.LayerUpstream
		}
		if !join {
			continue
		}
		joined++
		if tr.Proc != "READ" || hit || upstream {
			t.Errorf("trace %d (%s) with a join span: hit=%v upstream=%v", tr.ID, tr.Proc, hit, upstream)
		}
	}
	if joined != 1 {
		t.Errorf("%d traces with a block_cache/join span, want the one READ that waited", joined)
	}
}
