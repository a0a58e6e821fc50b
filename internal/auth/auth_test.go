package auth

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"gvfs/internal/bubble"
	"gvfs/internal/sunrpc"
)

func TestAllocateStable(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	id1, err := a.Allocate("alice@grid")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := a.Allocate("alice@grid")
	if err != nil {
		t.Fatal(err)
	}
	if id1.UID != id2.UID {
		t.Errorf("same user got different uids: %d, %d", id1.UID, id2.UID)
	}
	if id1.UID < 60000 || id1.UID >= 60010 {
		t.Errorf("uid %d outside pool", id1.UID)
	}
}

func TestAllocateDistinctUsers(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	ids := map[uint32]string{}
	for i := 0; i < 10; i++ {
		user := fmt.Sprintf("user%d", i)
		id, err := a.Allocate(user)
		if err != nil {
			t.Fatal(err)
		}
		if prev, taken := ids[id.UID]; taken {
			t.Errorf("uid %d reused: %s and %s", id.UID, prev, user)
		}
		ids[id.UID] = user
	}
}

func TestPoolExhaustion(t *testing.T) {
	a := NewAllocator(60000, 2, time.Hour)
	a.Allocate("u1")
	a.Allocate("u2")
	if _, err := a.Allocate("u3"); err != ErrPoolExhausted {
		t.Errorf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestRevokeFreesSlot(t *testing.T) {
	a := NewAllocator(60000, 1, time.Hour)
	a.Allocate("u1")
	a.Revoke("u1")
	if _, err := a.Allocate("u2"); err != nil {
		t.Errorf("allocation after revoke failed: %v", err)
	}
	if _, ok := a.Lookup("u1"); ok {
		t.Error("revoked identity still resolvable")
	}
}

// testTTL is the identity lifetime of the tests that wait for one to
// run out: short, since in real time they wait it out.
const testTTL = 200 * time.Millisecond

func TestExpiry(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		a := NewAllocator(60000, 1, testTTL)
		a.Allocate("u1")
		if n := a.Expire(); n != 0 {
			t.Errorf("expired %d fresh identities", n)
		}
		time.Sleep(2 * testTTL)
		if _, ok := a.Lookup("u1"); ok {
			t.Error("expired identity still valid")
		}
		// The expired slot is reclaimable.
		if _, err := a.Allocate("u2"); err != nil {
			t.Errorf("allocation after expiry failed: %v", err)
		}
	})
}

// TestRenewalOnUse renews an identity halfway through its lifetime and
// looks it up after the first lifetime has run out, before the renewed
// one has.
func TestRenewalOnUse(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		a := NewAllocator(60000, 4, testTTL)
		a.Allocate("u1")
		time.Sleep(testTTL / 2)
		a.Allocate("u1") // renews
		time.Sleep(testTTL * 3 / 5)
		if _, ok := a.Lookup("u1"); !ok {
			t.Error("identity expired despite renewal")
		}
	})
}

func TestLive(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	a.Allocate("u1")
	a.Allocate("u2")
	if a.Live() != 2 {
		t.Errorf("live = %d", a.Live())
	}
}

func TestMapperRewrite(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	m := NewMapper(a)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode()
	out, id, err := m.Rewrite(cred)
	if err != nil {
		t.Fatal(err)
	}
	if id.GridUser != "uid500@compute1" {
		t.Errorf("grid user = %q", id.GridUser)
	}
	uc, err := sunrpc.DecodeUnixCred(out)
	if err != nil {
		t.Fatal(err)
	}
	if uc.UID != id.UID || uc.UID < 60000 {
		t.Errorf("rewritten uid = %d, identity uid = %d", uc.UID, id.UID)
	}
	// Same caller maps to the same identity every time.
	_, id2, _ := m.Rewrite(cred)
	if id2.UID != id.UID {
		t.Error("rewrite not stable")
	}
}

func TestMapperAnonymous(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	m := NewMapper(a)
	_, id, err := m.Rewrite(sunrpc.AuthNoneCred)
	if err != nil {
		t.Fatal(err)
	}
	if id.GridUser != "anonymous" {
		t.Errorf("grid user = %q", id.GridUser)
	}
}

func TestMapperRejectsUnknownFlavor(t *testing.T) {
	a := NewAllocator(60000, 10, time.Hour)
	m := NewMapper(a)
	if _, _, err := m.Rewrite(sunrpc.OpaqueAuth{Flavor: 99}); err == nil {
		t.Error("unknown flavor accepted")
	}
}

func TestQuickDistinctUsersDistinctUIDs(t *testing.T) {
	f := func(users []uint16) bool {
		a := NewAllocator(60000, 1<<16, time.Hour)
		seen := map[string]uint32{}
		for _, u := range users {
			user := fmt.Sprintf("u%d", u)
			id, err := a.Allocate(user)
			if err != nil {
				return false
			}
			if prev, ok := seen[user]; ok && prev != id.UID {
				return false // same user must keep its uid
			}
			seen[user] = id.UID
		}
		// All distinct users hold distinct uids.
		uids := map[uint32]bool{}
		for _, uid := range seen {
			if uids[uid] {
				return false
			}
			uids[uid] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The memo never stands between a call and the Allocator: the lease is
// renewed by memoised calls, and a revoked or expired identity that
// comes back under another UID is re-encoded, not served from the memo.
func TestMapperMemoHonoursAllocator(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		a := NewAllocator(60000, 4, testTTL)
		m := NewMapper(a)
		alice := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode()
		uidOf := func(out sunrpc.OpaqueAuth) uint32 {
			t.Helper()
			uc, err := sunrpc.DecodeUnixCred(out)
			if err != nil {
				t.Fatal(err)
			}
			if uc.MachineName != "gvfs-proxy" || len(uc.GIDs) != 1 || uc.GIDs[0] != uc.GID {
				t.Fatalf("outgoing credential %+v", uc)
			}
			return uc.UID
		}
		rewrite := func(cred sunrpc.OpaqueAuth) (uint32, Identity) {
			t.Helper()
			out, id, err := m.Rewrite(cred)
			if err != nil {
				t.Fatal(err)
			}
			if got := uidOf(out); got != id.UID {
				t.Fatalf("credential carries uid %d, identity is %d", got, id.UID)
			}
			return id.UID, id
		}

		first, lease := rewrite(alice)
		// Renewal on use, through the memo.
		for i := 0; i < 3; i++ {
			time.Sleep(testTTL / 10)
			now := time.Now()
			uid, id := rewrite(alice)
			if uid != first || !id.Expires.After(lease.Expires) || id.Expires.Before(now.Add(testTTL)) {
				t.Fatalf("memoised call %d: uid %d (first %d), expires %v at %v, was %v", i, uid, first, id.Expires, now, lease.Expires)
			}
			lease = id
		}
		// Revoked, and the slot taken by someone else before alice returns.
		a.Revoke("uid500@compute1")
		a.next = first - 60000 // the allocator would otherwise move on by itself
		if _, err := a.Allocate("bob"); err != nil {
			t.Fatal(err)
		}
		second, id := rewrite(alice)
		if second == first || id.GridUser != "uid500@compute1" {
			t.Fatalf("after revoke and reuse of uid %d alice maps to uid %d (%+v)", first, second, id)
		}
		// Expired, slot reused, same again.
		time.Sleep(2 * testTTL)
		if n := a.Expire(); n != 2 {
			t.Fatalf("expired %d identities, want 2", n)
		}
		a.next = second - 60000
		if _, err := a.Allocate("carol"); err != nil {
			t.Fatal(err)
		}
		if third, _ := rewrite(alice); third == second {
			t.Fatalf("after expiry and reuse of uid %d alice still maps to it", second)
		}
		// Pool exhausted for a new user: the error, not a stale entry.
		a.Allocate("dave")
		a.Allocate("erin")
		if _, _, err := m.Rewrite(sunrpc.UnixCred{UID: 501, MachineName: "compute1"}.Encode()); err != ErrPoolExhausted {
			t.Fatalf("fifth user: %v, want ErrPoolExhausted", err)
		}
	})
}

// Credentials the mapper cannot name a user for fail on every call and
// leave nothing behind.
func TestMapperMemoKeepsRejecting(t *testing.T) {
	m := NewMapper(NewAllocator(60000, 10, time.Hour))
	for _, cred := range []sunrpc.OpaqueAuth{
		{Flavor: 99, Body: []byte("whatever")},
		{Flavor: sunrpc.AuthUnix, Body: []byte{0, 0, 0}},
		{Flavor: sunrpc.AuthUnix, Body: append(sunrpc.UnixCred{MachineName: "m"}.Encode().Body[:16], 0, 0, 0, 17)},
	} {
		for i := 0; i < 2; i++ {
			if _, _, err := m.Rewrite(cred); err == nil {
				t.Errorf("flavor %d body %x accepted on call %d", cred.Flavor, cred.Body, i)
			}
		}
	}
	if len(m.memo) != 0 {
		t.Errorf("%d entries memoised for rejected credentials", len(m.memo))
	}
}

// The stamp is the client's to choose: a client that never repeats one
// must not grow the table past its bound, and a hit costs no allocation.
func TestMapperMemoBoundedAndFree(t *testing.T) {
	m := NewMapper(NewAllocator(60000, 10, time.Hour))
	for stamp := uint32(0); stamp < 3*maxMemo; stamp++ {
		cred := sunrpc.UnixCred{Stamp: stamp, UID: 500, GID: 500, MachineName: "compute1"}.Encode()
		if _, id, err := m.Rewrite(cred); err != nil || id.UID != 60000 {
			t.Fatalf("stamp %d: uid %d, %v", stamp, id.UID, err)
		}
		if len(m.memo) > maxMemo {
			t.Fatalf("stamp %d: %d entries, bound %d", stamp, len(m.memo), maxMemo)
		}
	}
	cred := sunrpc.UnixCred{Stamp: 7, UID: 501, GID: 501, MachineName: "compute2"}.Encode()
	m.Rewrite(cred)
	if n := testing.AllocsPerRun(100, func() { m.Rewrite(cred) }); n != 0 {
		t.Errorf("%.1f allocations per memoised Rewrite, want 0", n)
	}
}
