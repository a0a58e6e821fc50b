// Package bubble runs a test in virtual time when the test binary is
// built with GOEXPERIMENT=synctest, and in real time otherwise.
//
// In virtual time the body runs inside a testing/synctest bubble: a
// sleep, a timer or a deadline inside it takes no wall time, and the
// clock jumps forward whenever every goroutine of the bubble is blocked.
// A chain on simnet's in-memory network (stack.StartChain) blocks only on
// channels, timers and sleeps, so a WAN chain runs at CPU speed and a
// link's round trips are exact. Each package that calls Run has one test
// file built only under the experiment that carries
//
//	//go:debug asynctimerchan=0
//
// which synctest.Run needs while go.mod says go 1.22.
package bubble
