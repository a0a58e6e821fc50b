package proxy

import (
	"fmt"
	"testing"
	"time"

	"gvfs/internal/nfs3"
)

func TestAccountingTablesAndRankings(t *testing.T) {
	a := newAccounting(2, 8)
	// Three files so the top-2 bound is exercised.
	a.recordRead("/a", "c1/uid=1", "block_hit", 100, false)
	a.recordRead("/a", "c1/uid=1", "block_hit", 100, false)
	a.recordRead("/a", "c1/uid=1", "block_miss", 100, false)
	a.recordRead("/b", "c2/uid=2", "zero_filter", 4096, false)
	a.recordRead("/c", "c1/uid=1", "forwarded", 10, false)
	a.recordWrite("/b", "c2/uid=2", 8192)
	a.recordOp("c1/uid=1", "READ")
	a.recordOp("c2/uid=2", "WRITE")

	doc := a.snapshot(false)
	if doc.FilesTracked != 3 {
		t.Errorf("FilesTracked = %d, want 3", doc.FilesTracked)
	}
	for name, rows := range doc.Files {
		if len(rows) > 2 {
			t.Errorf("ranking %q has %d rows, want <= 2", name, len(rows))
		}
	}
	reads := doc.Files["reads"]
	if len(reads) == 0 || reads[0].File != "/a" {
		t.Fatalf("top reads = %+v, want /a first", reads)
	}
	if got := reads[0].HitRatio; got < 0.66 || got > 0.67 {
		t.Errorf("hit ratio = %v, want 2/3", got)
	}
	zero := doc.Files["zero_savings"]
	if len(zero) == 0 || zero[0].File != "/b" || zero[0].ZeroSavedB != 4096 {
		t.Errorf("zero_savings ranking wrong: %+v", zero)
	}
	writes := doc.Files["writes"]
	if writes[0].File != "/b" || writes[0].WriteBytes != 8192 {
		t.Errorf("writes ranking wrong: %+v", writes)
	}
	if len(doc.Clients) != 2 {
		t.Fatalf("clients = %+v, want 2", doc.Clients)
	}
	c1 := doc.Clients[0]
	if c1.Client != "c1/uid=1" || c1.Ops["READ"] != 1 || c1.ReadBytes != 310 {
		t.Errorf("client c1 wrong: %+v", c1)
	}
}

func TestAccountingDegradedAttribution(t *testing.T) {
	a := newAccounting(4, 8)
	a.recordRead("/img", "compute/uid=500", "block_hit", 8192, true)
	doc := a.snapshot(true)
	if !doc.Degraded {
		t.Error("snapshot not marked degraded")
	}
	rows := doc.Files["reads"]
	if len(rows) != 1 || rows[0].DegradedReads != 1 {
		t.Fatalf("degraded read not attributed to file: %+v", rows)
	}
	if doc.Clients[0].DegradedReads != 1 {
		t.Errorf("degraded read not attributed to client: %+v", doc.Clients[0])
	}
}

func TestAuditLifecycle(t *testing.T) {
	a := newAccounting(4, 16)
	a.blockDirtied("disk", "/disk", 3, 8192)
	time.Sleep(5 * time.Millisecond)
	// Re-dirty keeps the original timestamp.
	a.blockDirtied("disk", "/disk", 3, 8192)
	a.flushTriggered(TriggerWriteBack)
	a.writeCommitted(nfs3.FH("disk"), "/disk", 3, 8192)

	doc := a.snapshot(false)
	ev := doc.Audit.Events
	if len(ev) != 4 {
		t.Fatalf("got %d audit events, want 4: %+v", len(ev), ev)
	}
	if ev[0].Kind != AuditDirty || ev[2].Kind != AuditTrigger || ev[3].Kind != AuditCommit {
		t.Fatalf("event order wrong: %+v", ev)
	}
	if ev[2].Reason != TriggerWriteBack || ev[2].Pending != 1 {
		t.Errorf("trigger event wrong: %+v", ev[2])
	}
	if ev[3].AgeNs < (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("commit age %dns, want >= 5ms (re-dirty must keep the first timestamp)", ev[3].AgeNs)
	}
	if doc.Audit.DirtyBlocks != 0 {
		t.Errorf("dirty blocks = %d after commit, want 0", doc.Audit.DirtyBlocks)
	}
}

func TestAuditRingBounded(t *testing.T) {
	a := newAccounting(4, 4)
	for i := 0; i < 10; i++ {
		a.flushTriggered(fmt.Sprintf("r%d", i))
	}
	doc := a.snapshot(false)
	if len(doc.Audit.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(doc.Audit.Events))
	}
	if doc.Audit.TotalEvents != 10 {
		t.Errorf("TotalEvents = %d, want 10", doc.Audit.TotalEvents)
	}
	if doc.Audit.Events[0].Reason != "r6" || doc.Audit.Events[3].Reason != "r9" {
		t.Errorf("oldest-first order wrong: %+v", doc.Audit.Events)
	}
}

func TestDirtyAgeTracking(t *testing.T) {
	a := newAccounting(4, 8)
	a.blockDirtied("x", "/x", 0, 1)
	time.Sleep(2 * time.Millisecond)
	doc := a.snapshot(false)
	if doc.Audit.DirtyBlocks != 1 {
		t.Fatalf("dirty blocks = %d, want 1", doc.Audit.DirtyBlocks)
	}
	if doc.Audit.OldestDirtyAgeNs < (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("oldest dirty age = %dns, want >= 2ms", doc.Audit.OldestDirtyAgeNs)
	}
}
