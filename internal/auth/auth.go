// Package auth implements GVFS cross-domain authentication support:
// logical user accounts and short-lived identities. Grid middleware
// allocates a local account at the server domain on behalf of a Grid
// user for the duration of a session; the server-side proxy rewrites
// the AUTH_UNIX credentials of forwarded RPC calls to the allocated
// identity, so the kernel NFS server only ever sees local users.
// This is the mechanism of the paper's references [14][15] that the
// GVFS proxy builds on.
package auth

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gvfs/internal/sunrpc"
)

// Identity is a short-lived local identity allocated to a Grid user.
type Identity struct {
	GridUser string
	UID      uint32
	GID      uint32
	Expires  time.Time
}

// Valid reports whether the identity is still live at now.
func (id Identity) Valid(now time.Time) bool { return now.Before(id.Expires) }

// ErrPoolExhausted is returned when no local accounts remain.
var ErrPoolExhausted = errors.New("auth: logical account pool exhausted")

// ErrUnknownUser is returned when rewriting for a user with no
// allocation.
var ErrUnknownUser = errors.New("auth: no identity allocated for user")

// Allocator manages a pool of logical user accounts: a contiguous UID
// range reserved for Grid sessions, handed out with a TTL.
type Allocator struct {
	base  uint32
	count uint32
	ttl   time.Duration

	mu     sync.Mutex
	byUser map[string]*Identity
	inUse  map[uint32]string
	next   uint32
}

// NewAllocator manages [base, base+count) with per-allocation ttl.
func NewAllocator(base, count uint32, ttl time.Duration) *Allocator {
	return &Allocator{
		base:   base,
		count:  count,
		ttl:    ttl,
		byUser: make(map[string]*Identity),
		inUse:  make(map[uint32]string),
	}
}

// Allocate returns the identity for gridUser, creating or renewing it.
func (a *Allocator) Allocate(gridUser string) (Identity, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	if id, ok := a.byUser[gridUser]; ok {
		id.Expires = now.Add(a.ttl) // renew on use
		return *id, nil
	}
	a.expireLocked(now)
	for i := uint32(0); i < a.count; i++ {
		uid := a.base + (a.next+i)%a.count
		if _, taken := a.inUse[uid]; !taken {
			a.next = (a.next + i + 1) % a.count
			id := &Identity{GridUser: gridUser, UID: uid, GID: uid, Expires: now.Add(a.ttl)}
			a.byUser[gridUser] = id
			a.inUse[uid] = gridUser
			return *id, nil
		}
	}
	return Identity{}, ErrPoolExhausted
}

// Lookup returns the live identity for gridUser.
func (a *Allocator) Lookup(gridUser string) (Identity, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.byUser[gridUser]
	if !ok || !id.Valid(time.Now()) {
		return Identity{}, false
	}
	return *id, true
}

// Revoke releases gridUser's identity immediately (session teardown).
func (a *Allocator) Revoke(gridUser string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.byUser[gridUser]; ok {
		delete(a.inUse, id.UID)
		delete(a.byUser, gridUser)
	}
}

// Expire drops all identities past their TTL and returns how many.
func (a *Allocator) Expire() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.expireLocked(time.Now())
}

func (a *Allocator) expireLocked(now time.Time) int {
	n := 0
	for user, id := range a.byUser {
		if !id.Valid(now) {
			delete(a.inUse, id.UID)
			delete(a.byUser, user)
			n++
		}
	}
	return n
}

// Live returns the number of live allocations.
func (a *Allocator) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.byUser)
}

// Mapper rewrites RPC credentials at the server-side proxy. Incoming
// calls carry the Grid user's own credential; outgoing calls carry the
// allocated short-lived local identity.
type Mapper struct {
	alloc *Allocator

	// UserOf derives the Grid user name from an incoming credential.
	// The default uses "uid<N>@<machine>" from AUTH_UNIX. It must be a
	// pure function of the credential and set before the first Rewrite:
	// its answers are memoised.
	UserOf func(cred sunrpc.OpaqueAuth) (string, error)

	mu   sync.Mutex
	memo map[credKey]rewritten
}

// credKey is an incoming credential as it arrived.
type credKey struct {
	flavor uint32
	body   string
}

// rewritten is what Rewrite derived from one incoming credential: a
// relayed session repeats the same few on every call.
type rewritten struct {
	user string
	uid  uint32            // the UID out was encoded for
	out  sunrpc.OpaqueAuth // shared by every call that hits: read-only
}

// maxMemo bounds Mapper.memo. The key is client-chosen bytes (the
// AUTH_UNIX stamp alone is 32 bits of them), so the table must not grow
// with what clients send; past the bound an arbitrary entry makes room.
const maxMemo = 1024

// NewMapper returns a Mapper backed by alloc.
func NewMapper(alloc *Allocator) *Mapper {
	return &Mapper{alloc: alloc, UserOf: DefaultUserOf, memo: make(map[credKey]rewritten)}
}

// DefaultUserOf names Grid users by their AUTH_UNIX uid and machine.
// AUTH_NONE callers share a single anonymous identity.
func DefaultUserOf(cred sunrpc.OpaqueAuth) (string, error) {
	if cred.Flavor == sunrpc.AuthNone {
		return "anonymous", nil
	}
	if cred.Flavor != sunrpc.AuthUnix {
		return "", fmt.Errorf("auth: unsupported credential flavor %d", cred.Flavor)
	}
	uc, err := sunrpc.DecodeUnixCred(cred)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("uid%d@%s", uc.UID, uc.MachineName), nil
}

// Rewrite maps an incoming credential to the local identity's
// credential, allocating on first use. Every call goes to the Allocator
// — the lease is renewed on use, and a revoked or expired identity is
// re-allocated — but the decode, the user name and the outgoing encoding
// are remembered per incoming credential and redone only when the
// identity's UID has changed. The returned credential is shared: callers
// must not modify its body.
func (m *Mapper) Rewrite(cred sunrpc.OpaqueAuth) (sunrpc.OpaqueAuth, Identity, error) {
	m.mu.Lock()
	e, hit := m.memo[credKey{cred.Flavor, string(cred.Body)}]
	m.mu.Unlock()
	if !hit {
		user, err := m.UserOf(cred)
		if err != nil {
			return sunrpc.OpaqueAuth{}, Identity{}, err
		}
		e.user = user
	}
	id, err := m.alloc.Allocate(e.user)
	if err != nil {
		return sunrpc.OpaqueAuth{}, Identity{}, err
	}
	if !hit || e.uid != id.UID {
		e.uid = id.UID
		e.out = sunrpc.UnixCred{
			MachineName: "gvfs-proxy",
			UID:         id.UID,
			GID:         id.GID,
			GIDs:        []uint32{id.GID},
		}.Encode()
		m.mu.Lock()
		if len(m.memo) >= maxMemo {
			for k := range m.memo {
				delete(m.memo, k)
				break
			}
		}
		m.memo[credKey{cred.Flavor, string(cred.Body)}] = e
		m.mu.Unlock()
	}
	return e.out, id, nil
}
