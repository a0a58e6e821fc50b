package sunrpc

import (
	"time"

	"gvfs/internal/bufpool"
)

// Local calls a Handler in process, the way a Server's dispatcher hands
// it decoded calls: the Client-shaped front of a service that has no
// connection in between.
type Local struct{ H Handler }

// Call issues one call with no verifier and no deadline. The caller, like
// a Client's, gets a slice it owns: a handler's pooled reply is copied.
func (l Local) Call(prog, vers, proc uint32, cred OpaqueAuth, args []byte) ([]byte, error) {
	res, rec, err := l.CallPooled(prog, vers, proc, cred, OpaqueAuth{}, args, time.Time{})
	return Keep(res, rec), err
}

// Keep turns a reply lent by a PooledCaller (res aliasing rec) into one
// the caller owns: res is copied and rec goes back to the pool, so a
// keeping caller costs the pool nothing. With a nil rec res is already
// the caller's.
func Keep(res, rec []byte) []byte {
	if rec == nil {
		return res
	}
	res = append([]byte(nil), res...)
	bufpool.Put(rec)
	return res
}

// CallPooled implements PooledCaller: the handler's Call.ReplyBuf is
// handed over as rec. The deadline becomes Call.Deadline; a non-SUCCESS
// accept state is an *RPCError.
func (l Local) CallPooled(prog, vers, proc uint32, cred, verf OpaqueAuth, args []byte, deadline time.Time) (results, rec []byte, err error) {
	c := Call{Prog: prog, Vers: vers, Proc: proc, Cred: cred, Verf: verf, Args: args, Deadline: deadline}
	res, stat := l.H.HandleCall(&c)
	if stat != Success {
		bufpool.Put(c.ReplyBuf)
		return nil, nil, &RPCError{Stat: stat}
	}
	return res, c.ReplyBuf, nil
}
