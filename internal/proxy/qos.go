package proxy

// QoS wiring: admission control at RPC dispatch, deadline propagation
// through the trace verifier, and the brownout shed policy.
//
// Admission runs before any handler work: the call is weighed (bytes
// for READ/WRITE, a nominal unit for metadata), queued in its client's
// bounded queue, and scheduled by the qos package's deficit
// round-robin. A call that cannot be admitted is shed with the
// retriable NFS3ERR_JUKEBOX (data procedures) so well-behaved clients
// simply retry, while the aggressive client burns its own budget.
//
// Deadlines arrive as a remaining-budget word in the GVFS trace
// verifier (sunrpc.TraceContext.BudgetMs) or default to
// Config.CallBudget; the remaining budget is re-encoded on every
// upstream hop so the whole chain stops working on a call its
// originator has given up on.

import (
	"context"
	"errors"
	"time"

	"gvfs/internal/nfs3"
	"gvfs/internal/qos"
	"gvfs/internal/sunrpc"
)

// metaCallCost weighs calls that carry no bulk data.
const metaCallCost = 512

// callCost estimates a call's byte weight for fair-share scheduling.
func callCost(c *sunrpc.Call) int {
	if c.Prog != nfs3.Program {
		return metaCallCost
	}
	switch c.Proc {
	case nfs3.ProcRead:
		var args nfs3.ReadArgs // on the stack, its handle lent: admission allocates nothing
		if args.DecodeRefInto(c.Args) == nil {
			return int(args.Count) + metaCallCost
		}
	case nfs3.ProcWrite:
		// The args carry the data; their length bounds the write size.
		return len(c.Args) + metaCallCost
	}
	return metaCallCost
}

// setDeadline stamps the call with its absolute deadline: the budget
// propagated by the downstream hop when present, else the configured
// default per-call budget.
func (p *Proxy) setDeadline(c *sunrpc.Call, now time.Time) {
	if tc, ok := sunrpc.DecodeTraceVerf(c.Verf); ok && tc.BudgetMs > 0 {
		c.Deadline = now.Add(time.Duration(tc.BudgetMs) * time.Millisecond)
		return
	}
	if p.cfg.CallBudget > 0 {
		c.Deadline = now.Add(p.cfg.CallBudget)
	}
}

// admit runs the call through the QoS scheduler. On success it returns
// the release function (never nil) and ok true. On shed it returns the
// reply to send and ok false.
func (p *Proxy) admit(c *sunrpc.Call) (release func(), res []byte, stat sunrpc.AcceptStat, ok bool) {
	if p.qos == nil {
		return func() {}, nil, 0, true
	}
	release, err := p.qos.Admit(p.clientLabel(c), callCost(c), c.Deadline)
	if err == nil {
		return release, nil, 0, true
	}
	switch {
	case errors.Is(err, qos.ErrQueueFull):
		p.log.Debug("call shed: client queue full", "client", p.clientLabel(c),
			"proc", procLabel(c.Prog, c.Proc))
	case errors.Is(err, context.DeadlineExceeded):
		p.log.Debug("call shed: deadline expired before admission",
			"client", p.clientLabel(c), "proc", procLabel(c.Prog, c.Proc))
	}
	res, stat = shedReply(c)
	return nil, res, stat, false
}

// shedReply builds the reply for a call the proxy refuses to serve
// right now. Data procedures get the retriable NFS3ERR_JUKEBOX —
// "try again shortly" — which NFS clients handle by backing off and
// retrying; anything else gets an RPC-level system error.
func shedReply(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	if c.Prog != nfs3.Program {
		return nil, sunrpc.SystemErr
	}
	switch c.Proc {
	case nfs3.ProcRead:
		return (&nfs3.ReadRes{Status: nfs3.ErrJukebox}).Encode(), sunrpc.Success
	case nfs3.ProcWrite:
		return (&nfs3.WriteRes{Status: nfs3.ErrJukebox}).Encode(), sunrpc.Success
	case nfs3.ProcLookup:
		return (&nfs3.LookupRes{Status: nfs3.ErrJukebox}).Encode(), sunrpc.Success
	case nfs3.ProcGetattr:
		return (&nfs3.GetattrRes{Status: nfs3.ErrJukebox}).Encode(), sunrpc.Success
	}
	return nil, sunrpc.SystemErr
}

// brownout reports whether the proxy should shed optional work.
func (p *Proxy) brownout() bool {
	return p.qos != nil && p.qos.Brownout()
}

// QoSTenants returns the scheduler's per-tenant table (nil when QoS is
// disabled); surfaced in /statusz.
func (p *Proxy) QoSTenants() []qos.TenantStats {
	if p.qos == nil {
		return nil
	}
	return p.qos.Snapshot()
}
