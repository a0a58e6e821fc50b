package proxy

// Crash recovery orchestration. A proxy that died with write-back state
// still unpropagated left a dirty-block journal in its cache directory;
// on restart the stack calls RecoverJournal before the listener starts
// serving, so by the time a client can reconnect the server already
// reflects every acknowledged write.

import (
	"gvfs/internal/cache"
)

// RecoverJournal rebuilds the dirty set a crashed predecessor left in
// the block cache's journal and replays it upstream through the
// ordinary write-back path. It is a no-op when the cache has no journal.
//
// A recovery *scan* failure is returned (the operator must intervene —
// serving with unreplayed acked writes would be silent data loss), but
// a *replay* failure is logged and swallowed: the dirty set is safely
// rebuilt in the cache, and the proxy's circuit breaker replays it once
// the upstream answers probes again.
func (p *Proxy) RecoverJournal() (cache.RecoveryReport, error) {
	bc := p.cfg.BlockCache
	if bc == nil || !bc.JournalEnabled() {
		return cache.RecoveryReport{}, nil
	}
	rep, err := bc.RecoverJournal()
	if err != nil {
		return rep, err
	}
	if rep.Records > 0 || rep.TornTail {
		p.log.Info("crash recovery",
			"records", rep.Records,
			"dirty", rep.Dirty,
			"restored", rep.Restored,
			"bytes", rep.Bytes,
			"torn_tail", rep.TornTail)
	}
	if rep.Dirty == 0 {
		return rep, nil
	}
	p.stats.journalRecovered.Add(uint64(rep.Dirty))
	if err := p.writeBackReason(TriggerRecovery); err != nil {
		p.log.Warn("recovery replay deferred; breaker will retry",
			"dirty", rep.Dirty, "err", err.Error())
	}
	return rep, nil
}
