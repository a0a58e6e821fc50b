package main

// The linter is exercised against a real obs.Endpoint: a registry with
// an exemplar-bearing histogram, a populated log ring, and a flight
// recorder, served over httptest. This is the same mux the daemons
// mount, so `go test ./cmd/promlint` validates the whole scrape path
// CI uses against live daemons.

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/cachean"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
)

// startEndpoint serves a fully-populated diagnostic surface.
func startEndpoint(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("gvfs_test_total", "A counter.").Add(3)
	h := reg.Histogram("gvfs_test_duration_seconds", "A histogram.", nil)
	h.Observe(30 * time.Millisecond)
	h.SetExemplar(30*time.Millisecond, 0xdeadbeef)

	ring := obs.NewRing[obs.Event](16)
	log := slog.New(obs.NewLogHandler(slog.LevelInfo, nil, ring, reg))
	log.With("component", "test").Info("hello", "k", "v")

	tracer := obs.NewTracer(16)
	flight := obs.NewFlightRecorder(16, time.Millisecond)
	a := tracer.Start(tracer.NewID(), 0, "READ")
	a.Span("proxy", "ok", time.Now().Add(-10*time.Millisecond))
	flight.Record(a.Finish(), obs.ReasonSlow)

	an := cachean.New(cachean.Config{Rate: 1, CapacityBytes: 100 * 8192, BlockSize: 8192})
	t.Cleanup(func() { an.Close() })
	fh := nfs3.FH("promlint-test-file")
	for block := uint64(0); block < 8; block++ {
		an.CacheLookup(fh, block, cache.LookupMiss)
	}
	an.CacheLookup(fh, 0, cache.LookupHit)
	an.Sync()

	srv := httptest.NewServer(obs.Endpoint{
		Registry: reg,
		Tracer:   tracer,
		Log:      ring,
		Flight:   flight,
		Cachez:   an.WriteCachez,
	}.Mux())
	t.Cleanup(srv.Close)
	return srv
}

func TestLintAllSurfacesAgainstLiveEndpoint(t *testing.T) {
	srv := startEndpoint(t)
	var out strings.Builder
	err := run([]string{
		"-url", srv.URL + "/metrics",
		"-statusz-url", srv.URL + "/statusz",
		"-logz-url", srv.URL + "/logz",
		"-cachez-url", srv.URL + "/cachez",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("lint failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"metrics ok", "statusz ok", "logz ok", "cachez ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRequiredMetrics(t *testing.T) {
	srv := startEndpoint(t)
	var out strings.Builder
	// Both a bare counter and a histogram family (matched via its _sum /
	// _count samples) must satisfy -require.
	err := run([]string{
		"-url", srv.URL + "/metrics",
		"-require", "gvfs_test_total,gvfs_test_duration_seconds",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("required metrics not found: %v\n%s", err, out.String())
	}
	err = run([]string{
		"-url", srv.URL + "/metrics",
		"-require", "gvfs_no_such_metric_total",
	}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "gvfs_no_such_metric_total") {
		t.Fatalf("missing required metric accepted: %v", err)
	}
}

func TestLintStdin(t *testing.T) {
	var out strings.Builder
	good := "# HELP x_total A counter.\n# TYPE x_total counter\nx_total 1\n"
	if err := run(nil, strings.NewReader(good), &out); err != nil {
		t.Fatalf("good stdin rejected: %v", err)
	}
	if err := run(nil, strings.NewReader("not metrics at all\n"), &out); err == nil {
		t.Fatal("malformed stdin accepted")
	}
}

// badHandler serves documents that are each invalid for their linter.
func badHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "this is not exposition format\n")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `["top-level array, not object"]`)
	})
	mux.HandleFunc("/logz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"total_logged":1,"capacity":0,"events":[]}`)
	})
	return mux
}

func TestLintRejectsMalformedSurfaces(t *testing.T) {
	bad := httptest.NewServer(badHandler())
	t.Cleanup(bad.Close)
	var out strings.Builder
	if err := run([]string{"-url", bad.URL + "/metrics"}, strings.NewReader(""), &out); err == nil {
		t.Error("malformed metrics accepted")
	}
	if err := run([]string{"-statusz-url", bad.URL + "/statusz"}, strings.NewReader(""), &out); err == nil {
		t.Error("unbounded statusz accepted")
	}
	if err := run([]string{"-logz-url", bad.URL + "/logz"}, strings.NewReader(""), &out); err == nil {
		t.Error("malformed logz accepted")
	}
}

func TestLintBoundedStatuszArrays(t *testing.T) {
	srv := startEndpoint(t)
	var out strings.Builder
	// max-array 0 makes any non-empty array fail; the endpoint's empty
	// statusz ({}) must still pass.
	if err := run([]string{"-statusz-url", srv.URL + "/statusz", "-max-array", "0"},
		strings.NewReader(""), &out); err != nil {
		t.Fatalf("empty statusz rejected at bound 0: %v", err)
	}
}
