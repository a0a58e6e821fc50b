package proxy

// Upstream health tracking: a circuit breaker that moves the proxy into
// a degraded, serve-from-cache mode when the next hop is unreachable,
// probes for recovery, and replays acknowledged (write-back) state once
// the upstream returns. Session semantics make this sound: during a
// session the proxy owns the file's dirty state, so cached reads and
// absorbed writes remain authoritative while the WAN is down.

import "gvfs/internal/backend"

// observeUpstream feeds a forwarded or backend call's outcome into the
// breaker by its backend.Classify class: any answer proves the path alive
// — a per-file error, or an RPC-level rejection (ClassIO); only
// ClassUnavailable (an unclassified error too) counts as a failure; and a
// timeout is neutral — a call running out of its propagated budget says
// nothing about upstream health. At the threshold the breaker opens:
// forwarded calls fail fast (bounded error latency), cached data keeps
// being served, and the breaker probes the backend until it answers.
func (p *Proxy) observeUpstream(err error) {
	if err == nil {
		p.breaker.Success()
		return
	}
	switch backend.Classify(err) {
	case backend.ClassTimeout:
	case backend.ClassUnavailable:
		if p.breaker.Failure() {
			p.stats.breakerOpens.Add(1)
			p.log.Warn("circuit breaker opened; serving degraded from cache")
		}
	default:
		p.breaker.Success()
	}
}

// answerable reports whether a failed upstream call has a status for the
// client (nfs3.StatusOf): a transport-class one is RPC SYSTEM_ERR.
func answerable(err error) bool {
	c := backend.Classify(err)
	return c != backend.ClassUnavailable && c != backend.ClassTimeout
}

// probeUpstream is the breaker's probe: a minimal backend call. An
// upstream that answers with an RPC-level error still counts as
// reachable (backend.Backend.Probe's contract).
func (p *Proxy) probeUpstream() error {
	p.stats.probes.Add(1)
	return p.cfg.Backend.Probe()
}

// Degraded reports whether the proxy is in degraded mode (upstream
// considered unreachable; cached data served under session semantics).
func (p *Proxy) Degraded() bool { return p.breaker.Open() }

// replayAfterRecovery is the breaker's recovery hook: it pushes every
// write acknowledged during (or before) the outage back upstream.
// Failures re-open the breaker via the regular accounting on
// upstreamWrite, so replay is retried on the next recovery.
func (p *Proxy) replayAfterRecovery() {
	p.stats.replays.Add(1)
	p.log.Info("circuit breaker closed; replaying write-back state")
	if err := p.writeBackReason(TriggerReplay); err != nil {
		p.log.Warn("post-recovery replay failed; data stays dirty", "err", err)
	}
}

// Shutdown stops background health probing. Idempotent; the stack layer
// runs it when the proxy's node closes.
func (p *Proxy) Shutdown() { p.breaker.Stop() }
