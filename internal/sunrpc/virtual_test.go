//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// This file is built only with GOEXPERIMENT=synctest, where bubble.Run
// runs a test in virtual time: synctest.Run needs the synchronous timer
// channels that go 1.22 in go.mod would otherwise turn off.
package sunrpc
