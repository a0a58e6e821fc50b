package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderThresholds(t *testing.T) {
	f := NewFlightRecorder(8, 50*time.Millisecond)
	if !f.ShouldRecord(60 * time.Millisecond) {
		t.Error("60ms over a 50ms threshold should record")
	}
	if f.ShouldRecord(10 * time.Millisecond) {
		t.Error("10ms under a 50ms threshold should not record")
	}
	if !f.ShouldRecord(50 * time.Millisecond) {
		t.Error("a call at the threshold should record")
	}
}

func TestFlightRecorderRingAndResolve(t *testing.T) {
	f := NewFlightRecorder(2, time.Second)
	for i := uint64(1); i <= 3; i++ {
		f.Record(Trace{ID: i, Proc: "READ", DurNs: int64(i)}, ReasonSlow)
	}
	recs := f.Recordings()
	if len(recs) != 2 {
		t.Fatalf("retained %d, want 2", len(recs))
	}
	if recs[0].Trace.ID != 2 || recs[1].Trace.ID != 3 {
		t.Fatalf("wrong retained IDs: %+v", recs)
	}
	if f.Total() != 3 {
		t.Errorf("Total = %d, want 3", f.Total())
	}
	if _, ok := f.Resolve(3); !ok {
		t.Error("retained trace not resolvable")
	}
	if _, ok := f.Resolve(1); ok {
		t.Error("overwritten trace should not resolve")
	}
	if rec, _ := f.Resolve(2); rec.ThresholdNs != time.Second.Nanoseconds() {
		t.Errorf("slow recording threshold = %d, want %d", rec.ThresholdNs, time.Second.Nanoseconds())
	}
}

func TestFlightRecorderJSON(t *testing.T) {
	f := NewFlightRecorder(4, time.Second)
	f.Record(Trace{ID: 0xabc, Proc: "WRITE", Spans: []Span{{Layer: LayerUpstream, Outcome: "ok"}}}, ReasonError)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintBoundedJSON(buf.Bytes(), 4); err != nil {
		t.Fatalf("flightrec JSON not bounded-valid: %v\n%s", err, buf.String())
	}
	var doc struct {
		Total      uint64 `json:"total_recorded"`
		Recordings []struct {
			Reason string `json:"reason"`
			Trace  Trace  `json:"trace"`
		} `json:"recordings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || len(doc.Recordings) != 1 {
		t.Fatalf("bad doc: %+v", doc)
	}
	if doc.Recordings[0].Reason != ReasonError || len(doc.Recordings[0].Trace.Spans) != 1 {
		t.Fatalf("span tree not preserved: %+v", doc.Recordings[0])
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(Trace{ID: 1}, ReasonSlow)
	if f.ShouldRecord(time.Hour) {
		t.Error("nil recorder should never record")
	}
	if f.Recordings() != nil || f.Total() != 0 {
		t.Error("nil recorder not inert")
	}
	if _, ok := f.Resolve(1); ok {
		t.Error("nil recorder resolved something")
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("test_rpc_seconds", "help", nil, "proc").With("READ")
	h.Observe(30 * time.Millisecond)
	h.SetExemplar(30*time.Millisecond, 0xdeadbeef)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# {trace_id="00000000deadbeef"} 0.03`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar %q:\n%s", want, out)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("Lint rejected exemplar output: %v", err)
	}
	ids := ExtractExemplarTraceIDs(buf.Bytes())
	if len(ids) != 1 || ids[0] != "00000000deadbeef" {
		t.Fatalf("ExtractExemplarTraceIDs = %v", ids)
	}
	parsed, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed[`test_rpc_seconds_count{proc="READ"}`] != 1 {
		t.Fatalf("ParseText lost the count sample: %v", parsed)
	}
	// Exemplar must land in the bucket the observation falls into.
	if parsed[`test_rpc_seconds_bucket{proc="READ",le="0.05"}`] != 1 {
		t.Fatalf("bucket parse wrong: %v", parsed)
	}
}

func TestLintRejectsBadExemplars(t *testing.T) {
	head := "# HELP m h\n# TYPE m histogram\n"
	cases := map[string]string{
		"on sum":     head + `m_bucket{le="+Inf"} 1` + "\n" + `m_sum 0.1 # {trace_id="0000000000000001"} 0.1` + "\nm_count 1\n",
		"short id":   head + `m_bucket{le="+Inf"} 1 # {trace_id="abc"} 0.1` + "\nm_sum 0.1\nm_count 1\n",
		"not hex":    head + `m_bucket{le="+Inf"} 1 # {trace_id="zzzzzzzzzzzzzzzz"} 0.1` + "\nm_sum 0.1\nm_count 1\n",
		"bad value":  head + `m_bucket{le="+Inf"} 1 # {trace_id="0000000000000001"} x` + "\nm_sum 0.1\nm_count 1\n",
		"no trailer": head + `m_bucket{le="+Inf"} 1 # nonsense` + "\nm_sum 0.1\nm_count 1\n",
	}
	for name, in := range cases {
		if err := Lint([]byte(in)); err == nil {
			t.Errorf("%s: Lint accepted:\n%s", name, in)
		}
	}
}

func TestActiveFinishReturnsTrace(t *testing.T) {
	tr := NewTracer(4)
	act := tr.Start(7, 1, "READ")
	act.Span(LayerBlockCache, "miss", time.Now())
	got := act.Finish()
	if got.ID != 7 || got.Hop != 1 || got.Proc != "READ" || len(got.Spans) != 1 {
		t.Fatalf("Finish returned %+v", got)
	}
	var nilAct *Active
	if z := nilAct.Finish(); z.ID != 0 {
		t.Fatalf("nil Finish returned %+v", z)
	}
}

func TestTraceIDString(t *testing.T) {
	if got := TraceIDString(0xab); got != "00000000000000ab" {
		t.Fatalf("TraceIDString = %q", got)
	}
}
