package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func newLogger(level slog.Leveler, out io.Writer, events *Ring[Event], reg *Registry) *slog.Logger {
	return slog.New(NewLogHandler(level, out, events, reg))
}

func TestLoggerLevelFiltering(t *testing.T) {
	ring := NewRing[Event](16)
	var level slog.LevelVar
	level.Set(slog.LevelWarn)
	lg := newLogger(&level, nil, ring, nil)
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	evs := ring.Values()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Level != "warn" || evs[1].Level != "error" {
		t.Fatalf("wrong levels: %+v", evs)
	}
	level.Set(slog.LevelDebug)
	if !lg.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatal("debug should be enabled after the level is lowered")
	}
	lg.Debug("d2")
	if got := len(ring.Values()); got != 3 {
		t.Fatalf("got %d events after lowering the level, want 3", got)
	}
}

func TestLogRingOverwritesOldest(t *testing.T) {
	ring := NewRing[Event](3)
	lg := newLogger(slog.LevelInfo, nil, ring, nil)
	for i := 0; i < 5; i++ {
		lg.Info(fmt.Sprintf("msg%d", i))
	}
	evs := ring.Values()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, want := range []string{"msg2", "msg3", "msg4"} {
		if evs[i].Msg != want {
			t.Errorf("event %d = %q, want %q", i, evs[i].Msg, want)
		}
	}
	if ring.Total() != 5 {
		t.Errorf("Total = %d, want 5", ring.Total())
	}
}

func TestLoggerNamedComponent(t *testing.T) {
	ring := NewRing[Event](16)
	root := newLogger(slog.LevelInfo, nil, ring, nil)
	root.With("component", "proxy").Info("a")
	root.With("component", "gvfsd").With("component", "breaker").Warn("b", "k", "v")
	evs := ring.Values()
	if evs[0].Component != "proxy" || evs[1].Component != "breaker" {
		t.Fatalf("components wrong: %+v", evs)
	}
	if len(evs[0].Fields) != 0 || len(evs[1].Fields) != 1 {
		t.Fatalf("the component must not be a field: %+v", evs)
	}
}

type stringerVal struct{}

func (stringerVal) String() string { return "stringered" }

// TestPairFields: key-value pairs become fields whose values are
// normalized to JSON-friendly types; pre-bound attributes come first
// and groups qualify their keys; malformed pairs stay visible.
func TestPairFields(t *testing.T) {
	ring := NewRing[Event](4)
	lg := newLogger(slog.LevelInfo, nil, ring, nil).With("bound", 1)
	lg.Info("m",
		"str", "v",
		"dur", 250*time.Millisecond,
		"err", errors.New("boom"),
		"stringer", stringerVal{},
		"n", 42,
		slog.Group("g", "k", true),
	)
	lg.WithGroup("req").Info("grouped", "id", "x")
	malformed := []any{42, "dangling"} // a slice, so vet lets the bad pairs through
	lg.Info("bad", malformed...)
	evs := ring.Values()
	for i, want := range [][]Field{
		{{"bound", int64(1)}, {"str", "v"}, {"dur", "250ms"}, {"err", "boom"},
			{"stringer", "stringered"}, {"n", int64(42)}, {"g.k", true}},
		{{"bound", int64(1)}, {"req.id", "x"}},
		{{"bound", int64(1)}, {"!BADKEY", int64(42)}, {"!BADKEY", "dangling"}},
	} {
		if got := evs[i].Fields; !slices.Equal(got, want) {
			t.Errorf("event %d fields = %+v, want %+v", i, got, want)
		}
	}
}

func TestLoggerTextSink(t *testing.T) {
	var buf bytes.Buffer
	lg := newLogger(slog.LevelInfo, &buf, nil, nil).With("component", "gvfsd")
	lg.Info("started", "addr", "127.0.0.1:2049", "note", "two words")
	lg.Warn("w")
	line := regexp.MustCompile(`^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}Z `)
	lines := strings.SplitAfter(buf.String(), "\n")
	for i, want := range []string{
		"INFO  gvfsd: started addr=127.0.0.1:2049 note=\"two words\"\n",
		"WARN  gvfsd: w\n",
	} {
		if ts := line.FindString(lines[i]); ts == "" || lines[i][len(ts):] != want {
			t.Errorf("line %d = %q, want a timestamp then %q", i, lines[i], want)
		}
	}
}

func TestLogzJSONPassesLint(t *testing.T) {
	ring := NewRing[Event](8)
	lg := newLogger(slog.LevelInfo, nil, ring, nil)
	lg.Info("hello", "k", 1)
	lg.Error("bad", "err", errors.New("x"))
	var buf bytes.Buffer
	if err := WriteLogz(&buf, ring); err != nil {
		t.Fatal(err)
	}
	if err := LintLogz(buf.Bytes()); err != nil {
		t.Fatalf("LintLogz rejected own output: %v\n%s", err, buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["total_logged"].(float64) != 2 || doc["capacity"].(float64) != 8 {
		t.Errorf("total_logged = %v, capacity = %v, want 2 and 8", doc["total_logged"], doc["capacity"])
	}
}

func TestLintLogzRejects(t *testing.T) {
	cases := map[string]string{
		"malformed":     `{"total_logged": `,
		"zero capacity": `{"total_logged":1,"capacity":0,"events":[]}`,
		"overflow":      `{"total_logged":3,"capacity":1,"events":[{"time_ns":1,"level":"info","msg":"a"},{"time_ns":2,"level":"info","msg":"b"}]}`,
		"no msg":        `{"total_logged":1,"capacity":4,"events":[{"time_ns":1,"level":"info","msg":""}]}`,
		"bad level":     `{"total_logged":1,"capacity":4,"events":[{"time_ns":1,"level":"fatal","msg":"x"}]}`,
		"bad time":      `{"total_logged":1,"capacity":4,"events":[{"time_ns":0,"level":"info","msg":"x"}]}`,
	}
	for name, in := range cases {
		if err := LintLogz([]byte(in)); err == nil {
			t.Errorf("%s: LintLogz accepted %s", name, in)
		}
	}
}

func TestLintBoundedJSON(t *testing.T) {
	if err := LintBoundedJSON([]byte(`{"a":[1,2,3],"b":{"c":[]}}`), 3); err != nil {
		t.Errorf("bounded doc rejected: %v", err)
	}
	if err := LintBoundedJSON([]byte(`{"a":[1,2,3,4]}`), 3); err == nil {
		t.Error("over-bound array accepted")
	}
	if err := LintBoundedJSON([]byte(`[1,2]`), 3); err == nil {
		t.Error("non-object top level accepted")
	}
	if err := LintBoundedJSON([]byte(`{"a":`), 3); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestNilLoggerAndRingSafe(t *testing.T) {
	lg := OrDiscard(nil)
	lg.Error("ignored", "k", "v")
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Error("the discard logger reports enabled")
	}
	if own := slog.New(NewLogHandler(slog.LevelInfo, nil, nil, nil)); OrDiscard(own) != own {
		t.Error("OrDiscard replaced a logger it was given")
	}
	var ring *Ring[Event]
	ring.Add(Event{})
	if ring.Values() != nil || ring.Total() != 0 || ring.Capacity() != 0 {
		t.Error("nil ring not inert")
	}
	var buf bytes.Buffer
	if err := WriteLogz(&buf, ring); err != nil {
		t.Fatal(err)
	}
	if err := LintBoundedJSON(buf.Bytes(), 10); err != nil {
		t.Errorf("nil ring JSON not bounded-valid: %v", err)
	}
}

func TestLoggerEventCounter(t *testing.T) {
	reg := NewRegistry()
	lg := newLogger(slog.LevelInfo, nil, NewRing[Event](4), reg)
	lg.Info("a")
	lg.Info("b")
	lg.Error("c")
	snap := reg.Snapshot()
	if got := snap.Counters[`gvfs_log_events_total{level="info"}`]; got != 2 {
		t.Errorf("info count = %d, want 2", got)
	}
	if got := snap.Counters[`gvfs_log_events_total{level="error"}`]; got != 1 {
		t.Errorf("error count = %d, want 1", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	ring := NewRing[Event](64)
	var buf bytes.Buffer
	lg := newLogger(slog.LevelInfo, &buf, ring, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			l := lg.With("component", fmt.Sprintf("c%d", n))
			for j := 0; j < 50; j++ {
				l.Info("tick", "j", j)
			}
		}(i)
	}
	wg.Wait()
	if ring.Total() != 400 {
		t.Errorf("Total = %d, want 400", ring.Total())
	}
	if got := len(ring.Values()); got != 64 {
		t.Errorf("retained %d, want 64", got)
	}
	if got := strings.Count(buf.String(), "\n"); got != 400 {
		t.Errorf("text sink has %d lines, want 400", got)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("fatal"); err == nil {
		t.Error("ParseLevel(fatal) should fail")
	}
}
