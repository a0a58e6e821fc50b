package sunrpc

// GVFS trace-context propagation as an optional RPC header extension.
//
// ONC RPC gives every CALL message a credential and a verifier; NFS
// traffic always sends AUTH_NONE as the call verifier and every server
// in this chain (proxies and the end nfs3 server alike) ignores it.
// That makes the verifier a free, in-band extension slot: a proxy that
// wants a downstream trace continued upstream replaces the empty
// verifier with flavor TraceVerfFlavor carrying {trace ID, hop}. Hops
// that understand the extension continue the trace; hops that don't
// (an unmodified NFS server) ignore the verifier entirely, so the
// extension is transparent end to end.

import (
	"time"

	"gvfs/internal/xdr"
)

// TraceVerfFlavor marks a CALL verifier carrying a GVFS trace context.
// The value spells "gvfs" and sits far outside the assigned RPC auth
// flavor range, so it cannot collide with real authentication.
const TraceVerfFlavor uint32 = 0x67766673

// TraceContext identifies one traced RPC as it crosses proxy hops and
// carries the caller's remaining deadline budget so every hop can shed
// work the client has already given up on.
type TraceContext struct {
	ID  uint64 // allocated at hop 0, stable across the chain; 0 = untraced (budget-only)
	Hop uint32 // 0 at the allocating proxy, +1 per upstream hop

	// BudgetMs is the caller's remaining deadline budget in
	// milliseconds at the time the call was transmitted. Zero means
	// "no deadline" — both for peers that predate the field (their
	// 12-byte verifier decodes with BudgetMs 0) and for calls without
	// a budget, so the extension stays wire-compatible in both
	// directions.
	BudgetMs uint32
}

// EncodeVerf packs the context into a verifier OpaqueAuth. Old peers
// decode only the leading 12 bytes and ignore the budget word.
func (tc TraceContext) EncodeVerf() OpaqueAuth {
	b := xdr.Builder{B: make([]byte, 0, 16)} // the 16-byte form, exactly
	b.Uint64(tc.ID)
	b.Uint32(tc.Hop)
	b.Uint32(tc.BudgetMs)
	return OpaqueAuth{Flavor: TraceVerfFlavor, Body: b.B}
}

// DecodeTraceVerf extracts a trace context from a call's verifier.
// The second result is false for any other flavor or a short body. A
// 12-byte body from a pre-budget peer decodes with BudgetMs 0.
func DecodeTraceVerf(a OpaqueAuth) (TraceContext, bool) {
	if a.Flavor != TraceVerfFlavor || len(a.Body) < 12 {
		return TraceContext{}, false
	}
	var d xdr.Decoder
	d.ResetBytes(a.Body)
	tc := TraceContext{ID: d.Uint64(), Hop: d.Uint32()}
	if len(a.Body) >= 16 {
		tc.BudgetMs = d.Uint32()
	}
	if d.Err() != nil {
		return TraceContext{}, false
	}
	return tc, true
}

// PooledCaller is implemented by transports that take everything a call
// can carry — an explicit verifier, the hook proxies use to propagate
// trace contexts upstream, and an absolute deadline that caps
// retransmission (zero: none) — and can lend the reply instead of giving
// it away: results alias rec, a bufpool buffer the caller releases once it
// has consumed them; a caller that keeps them takes a copy (Keep) or, at
// the pool's expense, never releases (see Client.CallPooled). *Client and
// Local do.
type PooledCaller interface {
	CallPooled(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte, deadline time.Time) (results, rec []byte, err error)
}
