package obs

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPrometheusExpositionGolden pins the exact exposition output for
// a fixed registry: family ordering, label rendering, cumulative
// histogram buckets, and the _sum/_count trailers.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("gvfs_calls_total", "Total calls handled.").Add(42)
	r.Gauge("gvfs_dirty_frames", "Dirty cache frames.").Set(3)
	cv := r.CounterVec("gvfs_reads_total", "Reads by outcome.", "outcome")
	cv.With("hit").Add(7)
	cv.With("miss").Add(2)
	hv := r.HistogramVec("gvfs_rpc_duration_seconds", "RPC latency by procedure.",
		[]float64{0.001, 0.01}, "proc")
	h := hv.With("READ")
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)

	const want = `# HELP gvfs_calls_total Total calls handled.
# TYPE gvfs_calls_total counter
gvfs_calls_total 42
# HELP gvfs_dirty_frames Dirty cache frames.
# TYPE gvfs_dirty_frames gauge
gvfs_dirty_frames 3
# HELP gvfs_reads_total Reads by outcome.
# TYPE gvfs_reads_total counter
gvfs_reads_total{outcome="hit"} 7
gvfs_reads_total{outcome="miss"} 2
# HELP gvfs_rpc_duration_seconds RPC latency by procedure.
# TYPE gvfs_rpc_duration_seconds histogram
gvfs_rpc_duration_seconds_bucket{proc="READ",le="0.001"} 2
gvfs_rpc_duration_seconds_bucket{proc="READ",le="0.01"} 3
gvfs_rpc_duration_seconds_bucket{proc="READ",le="+Inf"} 4
gvfs_rpc_duration_seconds_sum{proc="READ"} 0.056
gvfs_rpc_duration_seconds_count{proc="READ"} 4
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("golden output fails Lint: %v", err)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	bad := []struct{ name, in string }{
		{"no type", "orphan_total 3\n"},
		{"bad value", "# TYPE x counter\nx notanumber\n"},
		{"bad name", "# TYPE 9x counter\n9x 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{proc=\"READ\"} 1\n"},
		{"empty", ""},
		{"unknown type", "# TYPE x widget\nx 1\n"},
	}
	for _, tc := range bad {
		if err := Lint([]byte(tc.in)); err == nil {
			t.Errorf("%s: Lint accepted malformed input %q", tc.name, tc.in)
		}
	}
	good := "# HELP ok_total fine\n# TYPE ok_total counter\nok_total{a=\"b\"} 1\n"
	if err := Lint([]byte(good)); err != nil {
		t.Errorf("Lint rejected valid input: %v", err)
	}
}

// TestMuxEndpoints drives the bundled HTTP endpoint: /metrics must
// pass the linter, /traces and /logz must serve their rings as JSON,
// and /debug/vars must answer.
func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("gvfs_up_total", "up").Inc()
	tr := NewTracer(8)
	act := tr.Start(tr.NewID(), 0, "READ")
	act.Span(LayerBlockCache, "hit", time.Now())
	act.Finish()

	events := NewRing[Event](4)
	slog.New(NewLogHandler(slog.LevelInfo, nil, events, r)).Info("served")

	srv := httptest.NewServer(Endpoint{Registry: r, Tracer: tr, Log: events}.Mux())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if err := Lint([]byte(metrics)); err != nil {
		t.Errorf("/metrics failed lint: %v\n%s", err, metrics)
	}
	traces := get("/traces")
	if !strings.Contains(traces, `"block_cache"`) || !strings.Contains(traces, `"proc": "READ"`) {
		t.Errorf("/traces missing recorded trace: %s", traces)
	}
	if logz := get("/logz"); LintLogz([]byte(logz)) != nil || !strings.Contains(logz, `"msg": "served"`) {
		t.Errorf("/logz missing the logged event or failing lint: %s", logz)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Errorf("/debug/vars missing memstats")
	}
}
