// Package stacktest runs the chains tests declare, as net/http/httptest
// runs a server: stack.StartChain builds the stack.ChainSpec, the test's
// temporary directory is its work directory, and t.Cleanup closes it,
// last built first.
//
// With GVFS_CHAOS_LOG_DIR set, every hop logs into a ring and keeps a
// flight recorder, and a chain whose test failed writes each hop's /logz,
// /statusz and /flightrec documents into that directory.
package stacktest

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/obs"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// Cred is the AUTH_UNIX credential of the grid user the paper's compute
// server runs sessions for.
var Cred = sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode()

// New builds the chain spec declares, failing the test if it cannot.
func New(t testing.TB, spec stack.ChainSpec) *stack.Chain {
	t.Helper()
	c, err := Start(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Start builds the chain spec declares, under t.TempDir() unless the
// spec names a work directory, and closes it when the test ends.
func Start(t testing.TB, spec stack.ChainSpec) (*stack.Chain, error) {
	t.Helper()
	if spec.WorkDir == "" {
		spec.WorkDir = t.TempDir()
	}
	var rings []*obs.Ring[obs.Event]
	diagnose := os.Getenv("GVFS_CHAOS_LOG_DIR") != ""
	if diagnose {
		spec.Hops = slices.Clone(spec.Hops)
		rings = make([]*obs.Ring[obs.Event], len(spec.Hops))
		for i := range spec.Hops {
			o := &spec.Hops[i]
			if o.Logger == nil {
				rings[i] = obs.NewRing[obs.Event](512)
				o.Logger = slog.New(obs.NewLogHandler(slog.LevelDebug, nil, rings[i], nil))
			}
			if o.FlightRing == 0 {
				o.FlightRing = 64
			}
		}
	}
	c, err := stack.StartChain(spec)
	if err != nil {
		return nil, fmt.Errorf("stacktest: %w", err)
	}
	t.Cleanup(c.Close)
	if diagnose {
		dumpOnFailure(t, c, rings)
	}
	return c, nil
}

// Mount mounts one more session on c, failing the test if it cannot.
func Mount(t testing.TB, c *stack.Chain, cfg gvfs.SessionConfig) *gvfs.Session {
	t.Helper()
	sess, err := c.Mount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// chainsBuilt numbers the chains each test builds, so that the dumps of
// two chains in one test do not overwrite each other.
var chainsBuilt = struct {
	sync.Mutex
	n map[string]int
}{n: map[string]int{}}

// dumpOnFailure registers a cleanup that, if the test failed, writes each
// hop's log ring, /statusz document and flight recordings into
// $GVFS_CHAOS_LOG_DIR as <test>.chainK.hopN.<kind>.json, K counting the
// test's chains from 1. Registered after the chain's Close, it runs
// before it.
func dumpOnFailure(t testing.TB, c *stack.Chain, rings []*obs.Ring[obs.Event]) {
	dir := os.Getenv("GVFS_CHAOS_LOG_DIR")
	base := strings.ReplaceAll(t.Name(), "/", "_")
	chainsBuilt.Lock()
	chainsBuilt.n[base]++
	base = fmt.Sprintf("%s.chain%d", base, chainsBuilt.n[base])
	chainsBuilt.Unlock()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chain diagnostics: %v", err)
			return
		}
		dump := func(name string, write func(io.Writer) error) {
			path := filepath.Join(dir, base+"."+name+".json")
			f, err := os.Create(path)
			if err != nil {
				t.Logf("chain diagnostics: %v", err)
				return
			}
			defer f.Close()
			if err := write(f); err != nil {
				t.Logf("chain diagnostics: %s: %v", name, err)
				return
			}
			t.Logf("chain diagnostics: wrote %s", path)
		}
		for i, n := range c.Hops {
			if ring := rings[i]; ring != nil {
				dump(fmt.Sprintf("hop%d.logz", i), func(w io.Writer) error { return obs.WriteLogz(w, ring) })
			}
			dump(fmt.Sprintf("hop%d.statusz", i), n.Proxy.WriteStatusz)
			if n.Flight != nil {
				dump(fmt.Sprintf("hop%d.flightrec", i), n.Flight.WriteJSON)
			}
		}
	})
}
