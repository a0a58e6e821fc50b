package sunrpc

import (
	"net"
	"testing"
)

func TestTraceVerfRoundTrip(t *testing.T) {
	in := TraceContext{ID: 0xdeadbeefcafe, Hop: 3}
	verf := in.EncodeVerf()
	if verf.Flavor != TraceVerfFlavor {
		t.Fatalf("flavor = %#x, want %#x", verf.Flavor, TraceVerfFlavor)
	}
	out, ok := DecodeTraceVerf(verf)
	if !ok || out != in {
		t.Fatalf("round trip = %+v ok=%v, want %+v", out, ok, in)
	}
}

func TestTraceVerfBudgetRoundTrip(t *testing.T) {
	in := TraceContext{ID: 7, Hop: 2, BudgetMs: 1500}
	out, ok := DecodeTraceVerf(in.EncodeVerf())
	if !ok || out != in {
		t.Fatalf("round trip = %+v ok=%v, want %+v", out, ok, in)
	}
	// Budget-only context: ID 0 marks an untraced call that still
	// propagates its deadline.
	in = TraceContext{BudgetMs: 250}
	out, ok = DecodeTraceVerf(in.EncodeVerf())
	if !ok || out != in {
		t.Fatalf("budget-only round trip = %+v ok=%v, want %+v", out, ok, in)
	}
}

// A 12-byte verifier from a peer that predates the budget word must
// still decode, with BudgetMs zero (no deadline).
func TestDecodeTraceVerfLegacy12Bytes(t *testing.T) {
	full := TraceContext{ID: 99, Hop: 4, BudgetMs: 777}.EncodeVerf()
	legacy := OpaqueAuth{Flavor: TraceVerfFlavor, Body: full.Body[:12]}
	out, ok := DecodeTraceVerf(legacy)
	if !ok {
		t.Fatal("legacy 12-byte body must decode")
	}
	if out.ID != 99 || out.Hop != 4 || out.BudgetMs != 0 {
		t.Fatalf("legacy decode = %+v, want ID 99 Hop 4 BudgetMs 0", out)
	}
}

func TestDecodeTraceVerfRejectsOthers(t *testing.T) {
	if _, ok := DecodeTraceVerf(AuthNoneCred); ok {
		t.Error("AUTH_NONE must not decode as a trace context")
	}
	if _, ok := DecodeTraceVerf(OpaqueAuth{Flavor: TraceVerfFlavor, Body: []byte{1, 2}}); ok {
		t.Error("short body must not decode")
	}
}

// TestTraceVerfAcrossWire proves the extension is a transparent header:
// a server handler sees the propagated context, and a handler that
// ignores the verifier (like the end NFS server) still works.
func TestTraceVerfAcrossWire(t *testing.T) {
	srv := NewServer()
	var seen TraceContext
	var sawTrace bool
	srv.Register(100, 1, HandlerFunc(func(c *Call) ([]byte, AcceptStat) {
		seen, sawTrace = DecodeTraceVerf(c.Verf)
		return []byte{0, 0, 0, 7}, Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Plain Call: AUTH_NONE verifier, no trace decoded.
	if _, err := client.Call(100, 1, 0, AuthNoneCred, nil); err != nil {
		t.Fatalf("plain call: %v", err)
	}
	if sawTrace {
		t.Fatal("plain call must not carry a trace context")
	}

	// CallVerf: the context crosses the wire intact.
	want := TraceContext{ID: 42, Hop: 1}
	if _, err := client.CallVerf(100, 1, 0, AuthNoneCred, want.EncodeVerf(), nil); err != nil {
		t.Fatalf("CallVerf: %v", err)
	}
	if !sawTrace || seen != want {
		t.Fatalf("server saw %+v (trace=%v), want %+v", seen, sawTrace, want)
	}
}

// DecodeTraceVerf runs on every call of a traced chain at every hop, and
// DecodeUnixCred on every credential the proxy has not seen: the decode
// itself allocates nothing — only what a credential returns, its machine
// name and its group list, is new memory.
func TestDecodeTraceVerfAllocs(t *testing.T) {
	verf := TraceContext{ID: 7, Hop: 2, BudgetMs: 1500}.EncodeVerf()
	if allocs := testing.AllocsPerRun(100, func() {
		if tc, ok := DecodeTraceVerf(verf); !ok || tc.BudgetMs != 1500 {
			t.Fatalf("decoded %+v, %v", tc, ok)
		}
	}); allocs != 0 {
		t.Errorf("DecodeTraceVerf allocates %.0f/op, want 0", allocs)
	}
	for _, tc := range []struct {
		cred UnixCred
		max  float64
	}{
		{UnixCred{Stamp: 1, UID: 500, GID: 500}, 0},
		{UnixCred{Stamp: 1, MachineName: "compute", UID: 500, GID: 500, GIDs: []uint32{10}}, 2},
	} {
		auth := tc.cred.Encode()
		if allocs := testing.AllocsPerRun(100, func() {
			if c, err := DecodeUnixCred(auth); err != nil || c.UID != 500 {
				t.Fatalf("decoded %+v, %v", c, err)
			}
		}); allocs > tc.max {
			t.Errorf("DecodeUnixCred(%+v) allocates %.0f/op, want at most %.0f", tc.cred, allocs, tc.max)
		}
	}
}
