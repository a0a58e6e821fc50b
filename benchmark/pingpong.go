package main

// The ping-pong reference. The sandbox's host gives the same code half
// the speed from one half hour to the next, so a time or a rate measured
// here says more about the host than about the program. Every timed
// window is therefore paired with a slice of a fixed reference load run
// just before it, and the end-to-end timings are reported relative to
// that slice: the workload's figure divided by the reference's.
//
// The reference has the shape of a READ and none of the repository's
// code: nClients closed-loop clients, each sending a 32-byte request over
// its own loopback TCP connection and reading an 8 KiB reply.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gvfs/internal/simnet"
)

const pingPongRequest = 32 // bytes, about the size of READ3args

// reference is what the ping-pong achieved in one slice: the divisors
// of the end-to-end timings.
type reference struct {
	opsPerS   float64
	p50us     float64
	mibPerS   float64
	cpuPerGiB float64 // process CPU seconds per GiB of replies
}

type pingPong struct {
	l     net.Listener
	conns []net.Conn
	wg    sync.WaitGroup // server goroutines
}

func newPingPong() (*pingPong, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &pingPong{l: l}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer c.Close()
				req := make([]byte, pingPongRequest)
				reply := make([]byte, blockSize)
				for {
					if _, err := io.ReadFull(c, req); err != nil {
						return
					}
					if _, err := c.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < nClients; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Close stops the server and waits for its goroutines.
func (p *pingPong) Close() {
	for _, c := range p.conns {
		c.Close()
	}
	p.l.Close()
	p.wg.Wait()
}

// run drives every client closed-loop for d.
func (p *pingPong) run(d time.Duration) (reference, error) {
	lats := make([][]int64, len(p.conns))
	errs := make([]error, len(p.conns))
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range p.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			req := make([]byte, pingPongRequest)
			reply := make([]byte, blockSize)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, errs[i] = c.Write(req); errs[i] != nil {
					return
				}
				if _, errs[i] = io.ReadFull(c, reply); errs[i] != nil {
					return
				}
				lats[i] = append(lats[i], time.Since(t0).Nanoseconds())
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	var all []int64
	for i := range lats {
		if errs[i] != nil {
			return reference{}, errs[i]
		}
		all = append(all, lats[i]...)
	}
	sortInt64(all)
	n := float64(len(all))
	return reference{
		opsPerS:   n / elapsed,
		p50us:     percentileUs(all, 0.50),
		mibPerS:   n * blockSize / mib / elapsed,
		cpuPerGiB: ratio(cpu, n*blockSize/(1<<30)),
	}, nil
}

// overLink is the same ping-pong across a simnet link, worked out from
// the link's profile rather than run: the link sleeps for exactly these
// times whatever the host does. CPU does not depend on the link, so the
// loopback slice's figure is kept.
func (r reference) overLink(p simnet.Profile) reference {
	rtt := 2*p.OneWayDelay() + p.TransmitTime(pingPongRequest) + p.TransmitTime(blockSize)
	r.opsPerS = nClients / rtt.Seconds()
	r.p50us = float64(rtt.Microseconds())
	r.mibPerS = r.opsPerS * blockSize / mib
	return r
}

// refSlice is how long the reference runs before and after a wan_clone
// round (half a second of a 20 s run), and twice as long as it runs
// before a set-up.
func refSlice(cfg config) time.Duration {
	return time.Duration(cfg.seconds / 40 * float64(time.Second))
}

// nominalPingPong is the ping-pong rate of the sandbox while its host is
// quiet. setup_s has to be in seconds, and seconds swing with the host
// like every other absolute time (+38% between two half hours), so a
// set-up's measured time is put on the reference's clock: multiplied by
// the ping-pong rate found just before it and divided by this constant.
// On a quiet host the two clocks agree.
const nominalPingPong = 125000 // round trips per second

// setupTimes collects a run's set-up times, as measured and on the
// reference's clock.
type setupTimes struct{ measured, scaled []float64 }

// add runs a reference slice, then setup, and records how long setup took.
func (t *setupTimes) add(ref *pingPong, slice time.Duration, setup func() error) error {
	r, err := ref.run(slice)
	if err != nil {
		return fmt.Errorf("ping-pong reference: %w", err)
	}
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	d := time.Since(t0).Seconds()
	t.measured = append(t.measured, d)
	t.scaled = append(t.scaled, d*r.opsPerS/nominalPingPong)
	return nil
}
