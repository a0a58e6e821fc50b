package main

import (
	"net"
	"runtime"
	"sync"
	"time"

	"gvfs/internal/sunrpc"
)

// nClients is the closed-loop client count of every workload: one per
// core of the 2-core sandbox, one connection each, the next request
// only after the previous reply.
const nClients = 2

const (
	echoProg = 0x20000e0 // user-defined program number range
	echoVers = 1
)

// echoRig is a bare sunrpc server that answers every call with an
// 8 KiB reply, plus nClients connected clients: the RPC substrate of a
// warm READ with everything GVFS-specific removed.
type echoRig struct {
	srv     *sunrpc.Server
	l       net.Listener
	clients []*sunrpc.Client
}

func newEchoRig() (*echoRig, error) {
	reply := make([]byte, blockSize)
	srv := sunrpc.NewServer()
	srv.Register(echoProg, echoVers, sunrpc.HandlerFunc(func(*sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
		return reply, sunrpc.Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	r := &echoRig{srv: srv, l: l}
	for i := 0; i < nClients; i++ {
		cl, err := sunrpc.Dial(l.Addr().String())
		if err != nil {
			r.Close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

func (r *echoRig) Close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.srv.Close()
	r.l.Close()
}

type echoResult struct {
	opsPerS, p50us, allocsPerOp float64
}

// run drives all clients closed-loop for d.
func (r *echoRig) run(d time.Duration) (echoResult, error) {
	args := make([]byte, 32) // about the size of READ3args
	lats := make([][]int64, len(r.clients))
	errs := make([]error, len(r.clients))
	for i := range lats {
		lats[i] = make([]int64, 0, 1<<18)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *sunrpc.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, err := cl.Call(echoProg, echoVers, 1, sunrpc.AuthNoneCred, args); err != nil {
					errs[i] = err
					return
				}
				if len(lats[i]) < cap(lats[i]) {
					lats[i] = append(lats[i], time.Since(t0).Nanoseconds())
				}
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	var all []int64
	for i := range lats {
		if errs[i] != nil {
			return echoResult{}, errs[i]
		}
		all = append(all, lats[i]...)
	}
	sortInt64(all)
	n := float64(len(all))
	return echoResult{
		opsPerS:     n / elapsed,
		p50us:       percentileUs(all, 0.50),
		allocsPerOp: ratio(float64(ms1.Mallocs-ms0.Mallocs), n),
	}, nil
}
