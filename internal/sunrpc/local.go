package sunrpc

import (
	"time"

	"gvfs/internal/bufpool"
)

// Local calls a Handler in process, the way a Server's dispatcher hands
// it decoded calls: the Client-shaped front of a service that has no
// connection in between. It honours Call.ReplyPooled — the pooled reply
// goes back to the pool and the caller, like a Client's, gets a slice it
// owns.
type Local struct{ H Handler }

// Call issues one call with no verifier and no deadline.
func (l Local) Call(prog, vers, proc uint32, cred OpaqueAuth, args []byte) ([]byte, error) {
	return l.CallVerfDeadline(prog, vers, proc, cred, OpaqueAuth{}, args, time.Time{})
}

// CallVerfDeadline implements DeadlineVerfCaller; the deadline becomes
// Call.Deadline. A non-SUCCESS accept state is an *RPCError.
func (l Local) CallVerfDeadline(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte, deadline time.Time) ([]byte, error) {
	c := Call{Prog: prog, Vers: vers, Proc: proc, Cred: cred, Verf: verf, Args: args, Deadline: deadline}
	res, stat := l.H.HandleCall(&c)
	if c.ReplyPooled {
		pooled := res
		res = append([]byte(nil), pooled...)
		bufpool.Put(pooled)
	}
	if stat != Success {
		return nil, &RPCError{Stat: stat}
	}
	return res, nil
}
