package sunrpc

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gvfs/internal/xdr"
)

const (
	testProg = 0x20000001
	testVers = 1
)

// echoHandler echoes args for proc 1, doubles a uint32 for proc 2.
func echoHandler(c *Call) ([]byte, AcceptStat) {
	switch c.Proc {
	case 0:
		return nil, Success
	case 1:
		return c.Args, Success
	case 2:
		var d xdr.Decoder
		d.ResetBytes(c.Args)
		v := d.Uint32()
		if d.Err() != nil {
			return nil, GarbageArgs
		}
		return u32(v * 2), Success
	}
	return nil, ProcUnavail
}

// u32 is the XDR form of v.
func u32(v uint32) []byte {
	var b xdr.Builder
	b.Uint32(v)
	return b.B
}

// asU32 decodes p as one XDR unsigned int (0 if it is short).
func asU32(p []byte) uint32 {
	var d xdr.Decoder
	d.ResetBytes(p)
	return d.Uint32()
}

func startTestServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Register(testProg, testVers, HandlerFunc(echoHandler))
	go s.Serve(l)
	return l.Addr().String(), func() { s.Close(); l.Close() }
}

func TestCallNullProc(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Call(testProg, testVers, 0, AuthNoneCred, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("NULL returned %d bytes", len(res))
	}
}

func TestCallEcho(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := c.Call(testProg, testVers, 1, AuthNoneCred, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, payload) {
		t.Errorf("echo = %v, want %v", res, payload)
	}
}

func TestCallDouble(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	res, err := c.Call(testProg, testVers, 2, AuthNoneCred, u32(21))
	if err != nil {
		t.Fatal(err)
	}
	if got := asU32(res); got != 42 {
		t.Errorf("double(21) = %d, want 42", got)
	}
}

func TestProcUnavail(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(testProg, testVers, 99, AuthNoneCred, nil)
	rpcErr, ok := err.(*RPCError)
	if !ok || rpcErr.Stat != ProcUnavail {
		t.Errorf("err = %v, want PROC_UNAVAIL", err)
	}
}

func TestProgUnavail(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(0x30000000, 1, 0, AuthNoneCred, nil)
	rpcErr, ok := err.(*RPCError)
	if !ok || rpcErr.Stat != ProgUnavail {
		t.Errorf("err = %v, want PROG_UNAVAIL", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Call(testProg, testVers, 2, AuthNoneCred, u32(uint32(i)))
			if err != nil {
				errs <- err
				return
			}
			if got := asU32(res); got != uint32(i*2) {
				errs <- fmt.Errorf("double(%d) = %d", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	addr, stop := startTestServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(testProg, testVers, 0, AuthNoneCred, nil); err != nil {
		t.Fatal(err)
	}
	stop()
	deadline := time.After(2 * time.Second)
	for {
		_, err := c.Call(testProg, testVers, 0, AuthNoneCred, nil)
		if err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("call kept succeeding after server close")
		default:
		}
	}
}

func TestUnixCredRoundTrip(t *testing.T) {
	in := UnixCred{Stamp: 7, MachineName: "grid-c1", UID: 1001, GID: 100, GIDs: []uint32{100, 4}}
	a := in.Encode()
	if a.Flavor != AuthUnix {
		t.Fatalf("flavor = %d", a.Flavor)
	}
	out, err := DecodeUnixCred(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stamp != in.Stamp || out.MachineName != in.MachineName ||
		out.UID != in.UID || out.GID != in.GID || len(out.GIDs) != 2 {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestUnixCredWrongFlavor(t *testing.T) {
	if _, err := DecodeUnixCred(AuthNoneCred); err == nil {
		t.Error("expected error decoding AUTH_NONE as AUTH_UNIX")
	}
}

func TestQuickUnixCredRoundTrip(t *testing.T) {
	f := func(stamp, uid, gid uint32, name string) bool {
		in := UnixCred{Stamp: stamp, MachineName: name, UID: uid, GID: gid}
		out, err := DecodeUnixCred(in.Encode())
		return err == nil && out.Stamp == stamp && out.UID == uid &&
			out.GID == gid && out.MachineName == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordMarkingFragments(t *testing.T) {
	// A message split into multiple fragments must reassemble.
	var buf bytes.Buffer
	frag1 := []byte("hello ")
	frag2 := []byte("world")
	hdr := make([]byte, 4)
	put := func(n uint32, last bool) {
		if last {
			n |= 0x80000000
		}
		hdr[0] = byte(n >> 24)
		hdr[1] = byte(n >> 16)
		hdr[2] = byte(n >> 8)
		hdr[3] = byte(n)
		buf.Write(hdr)
	}
	put(uint32(len(frag1)), false)
	buf.Write(frag1)
	put(uint32(len(frag2)), true)
	buf.Write(frag2)
	rec, err := readRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec) != "hello world" {
		t.Errorf("rec = %q", rec)
	}
}

func TestRecordTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // huge fragment claim
	if _, err := readRecord(&buf); err == nil {
		t.Error("expected error for oversized record")
	}
}

func TestAuthUnixPassedToHandler(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan UnixCred, 1)
	s := NewServer()
	s.Register(testProg, testVers, HandlerFunc(func(c *Call) ([]byte, AcceptStat) {
		cred, err := DecodeUnixCred(c.Cred)
		if err == nil {
			got <- cred
		}
		return nil, Success
	}))
	defer s.Close()
	go s.Serve(l)
	c, _ := Dial(l.Addr().String())
	defer c.Close()
	cred := UnixCred{UID: 500, GID: 500, MachineName: "vm1"}
	if _, err := c.Call(testProg, testVers, 0, cred.Encode(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		if g.UID != 500 || g.MachineName != "vm1" {
			t.Errorf("handler saw cred %+v", g)
		}
	case <-time.After(time.Second):
		t.Fatal("handler never saw credential")
	}
}

func TestGarbageStreamDoesNotKillServer(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	// A client that speaks garbage gets dropped...
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write(bytes.Repeat([]byte{0xFF}, 64))
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	raw.Read(buf) // either EOF or timeout; both fine
	raw.Close()
	// ...while legitimate clients keep working.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(testProg, testVers, 0, AuthNoneCred, nil); err != nil {
		t.Errorf("server unusable after garbage client: %v", err)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	// Close to the record cap: a 512 KB echo.
	payload := bytes.Repeat([]byte{0xA5}, 512*1024)
	res, err := c.Call(testProg, testVers, 1, AuthNoneCred, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, payload) {
		t.Error("large payload corrupted")
	}
}

func TestManySequentialCalls(t *testing.T) {
	addr, stop := startTestServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	for i := 0; i < 500; i++ {
		res, err := c.Call(testProg, testVers, 2, AuthNoneCred, u32(uint32(i)))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := asU32(res); got != uint32(i*2) {
			t.Fatalf("call %d: got %d", i, got)
		}
	}
}
