package sunrpc

// Golden wire vectors (testdata/wire/*.hex) for what this package puts
// on the wire: the CALL and accepted-REPLY headers, the AUTH_UNIX
// credential body and the trace verifier. They are the bytes of the commit
// before the single XDR codec; each is held against today's encoder and
// today's decoder, headers on the real client and server paths as well.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"

	"gvfs/internal/wiretest"
	"gvfs/internal/xdr"
)

var (
	goldCred  = UnixCred{Stamp: 0x5eed, MachineName: "compute", UID: 500, GID: 501, GIDs: []uint32{10, 20}}
	goldTrace = TraceContext{ID: 0x0102030405060708, Hop: 2, BudgetMs: 1500}
)

func TestGoldenAuthBodies(t *testing.T) {
	wiretest.Check(t, "unix_cred", goldCred.Encode().Body)
	c, err := DecodeUnixCred(OpaqueAuth{Flavor: AuthUnix, Body: wiretest.Vector(t, "unix_cred")})
	if err != nil || !reflect.DeepEqual(c, goldCred) {
		t.Errorf("unix_cred decodes to %+v (err=%v), want %+v", c, err, goldCred)
	}

	wiretest.Check(t, "trace_verf_16", goldTrace.EncodeVerf().Body)
	tc, ok := DecodeTraceVerf(OpaqueAuth{Flavor: TraceVerfFlavor, Body: wiretest.Vector(t, "trace_verf_16")})
	if !ok || tc != goldTrace {
		t.Errorf("trace_verf_16 decodes to %+v (ok=%v), want %+v", tc, ok, goldTrace)
	}
	// The form peers older than the budget word send; nothing here encodes it.
	wiretest.Check(t, "trace_verf_12", goldTrace.EncodeVerf().Body[:12])
	tc, ok = DecodeTraceVerf(OpaqueAuth{Flavor: TraceVerfFlavor, Body: wiretest.Vector(t, "trace_verf_12")})
	if want := (TraceContext{ID: goldTrace.ID, Hop: goldTrace.Hop}); !ok || tc != want {
		t.Errorf("trace_verf_12 decodes to %+v (ok=%v), want %+v", tc, ok, want)
	}
}

// record puts a record mark in front of one message.
func record(msg []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(msg))|0x80000000), msg...)
}

// TestGoldenHeaders holds the first call of a connection (XID 1) and its
// reply to their vectors four ways: the header encoders alone, parseCall
// on the call vector, a Server handed the call vector, and a Client whose
// peer checks what arrives against the call vector and answers with the
// reply vector.
func TestGoldenHeaders(t *testing.T) {
	for _, tc := range []struct {
		call, reply string
		proc        uint32
		cred, verf  OpaqueAuth
		args        []byte
		stat        AcceptStat
		results     []byte
	}{
		{"call", "reply", 6, goldCred.Encode(), goldTrace.EncodeVerf(), []byte("ARGS"), Success, []byte("RES!")},
		{"call_auth_none", "reply_garbage_args", 99, AuthNoneCred, AuthNoneCred, nil, GarbageArgs, nil},
		// What a call whose upstream failed at the transport gets (RFC 5531
		// §9): xid 1, REPLY (1), MSG_ACCEPTED (0), an AUTH_NONE verifier (0,
		// length 0), SYSTEM_ERR (5), spelled by hand into its vector file.
		{"call_auth_none", "reply_system_err", 99, AuthNoneCred, AuthNoneCred, nil, SystemErr, nil},
	} {
		rec := marshalCallRecord(1, testProg, testVers, tc.proc, tc.cred, tc.verf, tc.args)
		wiretest.Check(t, tc.call, rec[4:])
		if mark := binary.BigEndian.Uint32(rec); mark != uint32(len(rec)-4)|0x80000000 {
			t.Errorf("%s: record mark %#x on a %d-byte message", tc.call, mark, len(rec)-4)
		}
		var b xdr.Builder
		appendAcceptedReply(&b, 1, tc.stat)
		wiretest.Check(t, tc.reply, append(b.B, tc.results...))
		callVec, replyVec := wiretest.Vector(t, tc.call), wiretest.Vector(t, tc.reply)

		c, err := parseCall(bytes.Clone(callVec))
		if err != nil {
			t.Fatalf("%s: %v", tc.call, err)
		}
		if c.XID != 1 || c.Prog != testProg || c.Vers != testVers || c.Proc != tc.proc ||
			c.Cred.Flavor != tc.cred.Flavor || !bytes.Equal(c.Cred.Body, tc.cred.Body) ||
			c.Verf.Flavor != tc.verf.Flavor || !bytes.Equal(c.Verf.Body, tc.verf.Body) ||
			!bytes.Equal(c.Args, tc.args) {
			t.Errorf("%s parses to %+v", tc.call, c)
		}

		// A Server handed the call vector answers with the reply vector.
		srv := NewServer()
		srv.Register(testProg, testVers, HandlerFunc(func(*Call) ([]byte, AcceptStat) { return tc.results, tc.stat }))
		near, far := net.Pipe()
		go srv.serveConn(far)
		go near.Write(record(callVec))
		got, err := readRecord(near)
		near.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.reply, err)
		}
		wiretest.Check(t, tc.reply, got)

		// A Client sends the call vector and decodes the reply vector.
		near, far = net.Pipe()
		go func() {
			if sent, err := readRecord(far); err == nil && bytes.Equal(sent, callVec) {
				far.Write(record(replyVec))
			}
			far.Close() // a call that was not the vector fails for want of a reply
		}()
		cl := NewClient(near)
		res, err := cl.CallVerf(testProg, testVers, tc.proc, tc.cred, tc.verf, tc.args)
		cl.Close()
		var rpcErr *RPCError
		switch {
		case tc.stat == Success && (err != nil || !bytes.Equal(res, tc.results)):
			t.Errorf("%s: client got %q, %v", tc.reply, res, err)
		case tc.stat != Success && (!errors.As(err, &rpcErr) || rpcErr.Stat != tc.stat):
			t.Errorf("%s: client got %v, want %v", tc.reply, err, tc.stat)
		}
	}
}
