package obs

// Structured, leveled logging — the event-log half of the diagnostic
// layer. Gray's observation that most outages are diagnosed from event
// logs rather than counters motivates keeping this next to the metrics
// registry: one package carries both signals.
//
// Components log through a *slog.Logger, scoped with
// With("component", name). The handler here turns each record into
// three outputs: a text line (stderr and/or a log file), an Event in a
// bounded ring (served as JSON at /logz, and dumpable as a post-mortem
// artifact) and a count in gvfs_log_events_total{level}.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ParseLevel maps a flag value ("debug", "info", "warn" or "warning",
// "error") to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// Field is one key-value pair attached to an event.
type Field struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Event is one structured log record.
type Event struct {
	TimeNs    int64   `json:"time_ns"` // unix nanoseconds
	Level     string  `json:"level"`
	Component string  `json:"component,omitempty"`
	Msg       string  `json:"msg"`
	Fields    []Field `json:"fields,omitempty"`
}

// DefaultLogRing is the /logz ring capacity the daemons use.
const DefaultLogRing = 1024

// logzDoc is the /logz JSON document.
type logzDoc struct {
	Total    uint64  `json:"total_logged"`
	Capacity int     `json:"capacity"`
	Events   []Event `json:"events"`
}

// WriteLogz dumps events as the /logz JSON document. A nil ring
// renders an empty document.
func WriteLogz(w io.Writer, events *Ring[Event]) error {
	doc := logzDoc{Total: events.Total(), Capacity: events.Capacity(), Events: events.Values()}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	return writeIndented(w, doc)
}

// LintLogz validates a /logz document: well-formed JSON of the right
// shape, with the events array bounded by the declared capacity. The
// linter guards the same failure modes Lint does for /metrics — an
// encoder emitting unbounded or malformed output.
func LintLogz(data []byte) error {
	var doc logzDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("logz: malformed JSON: %v", err)
	}
	if doc.Capacity <= 0 {
		return fmt.Errorf("logz: capacity %d is not positive", doc.Capacity)
	}
	if len(doc.Events) > doc.Capacity {
		return fmt.Errorf("logz: %d events exceed declared capacity %d", len(doc.Events), doc.Capacity)
	}
	for i, e := range doc.Events {
		if e.Msg == "" {
			return fmt.Errorf("logz: event %d has no msg", i)
		}
		if _, err := ParseLevel(e.Level); err != nil || e.Level == "" {
			return fmt.Errorf("logz: event %d has bad level %q", i, e.Level)
		}
		if e.TimeNs <= 0 {
			return fmt.Errorf("logz: event %d has bad time_ns %d", i, e.TimeNs)
		}
	}
	return nil
}

// discard drops every record; see OrDiscard.
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// OrDiscard returns l, or a logger that drops every record when l is
// nil: what a component that was given no logger logs to.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

// logHandler is the slog.Handler behind every daemon logger. The
// handlers derived from one by WithAttrs and WithGroup share its sinks.
type logHandler struct {
	level  slog.Leveler
	events *Ring[Event] // nil = no /logz ring
	counts *CounterVec  // gvfs_log_events_total{level}; nil when unmetered
	out    io.Writer    // nil = no text sink
	mu     *sync.Mutex  // serializes text lines

	component string  // the value of a top-level "component" attribute
	prefix    string  // open groups, each followed by "."
	attrs     []Field // bound by WithAttrs
}

// NewLogHandler returns a handler recording every record at or above
// level into up to three sinks, each optional: a text line written to
// out, an Event added to events, and a count in metrics'
// gvfs_log_events_total{level}. A "component" attribute bound with
// Logger.With names the event's component rather than adding a field.
func NewLogHandler(level slog.Leveler, out io.Writer, events *Ring[Event], metrics *Registry) slog.Handler {
	h := &logHandler{level: level, events: events, out: out, mu: new(sync.Mutex)}
	if metrics != nil {
		h.counts = metrics.CounterVec("gvfs_log_events_total",
			"Structured log events emitted, by level.", "level")
	}
	return h
}

func (h *logHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.level.Level()
}

func (h *logHandler) Handle(_ context.Context, r slog.Record) error {
	e := Event{
		TimeNs:    r.Time.UnixNano(),
		Level:     strings.ToLower(r.Level.String()),
		Component: h.component,
		Msg:       r.Message,
	}
	if n := len(h.attrs) + r.NumAttrs(); n > 0 {
		e.Fields = append(make([]Field, 0, n), h.attrs...)
		r.Attrs(func(a slog.Attr) bool {
			e.Fields = appendField(e.Fields, h.prefix, a)
			return true
		})
	}
	if h.counts != nil {
		h.counts.With(e.Level).Inc()
	}
	h.events.Add(e)
	if h.out == nil {
		return nil
	}
	line := renderText(e)
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := io.WriteString(h.out, line)
	return err
}

func (h *logHandler) WithAttrs(as []slog.Attr) slog.Handler {
	c := *h
	c.attrs = slices.Clip(h.attrs)
	for _, a := range as {
		if a.Key == "component" && h.prefix == "" {
			c.component = a.Value.Resolve().String()
			continue
		}
		c.attrs = appendField(c.attrs, h.prefix, a)
	}
	return &c
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	c := *h
	c.prefix += name + "."
	return &c
}

// appendField adds a as one field per leaf, a group's members keyed
// "group.key". An empty attribute is dropped, as slog handlers do.
func appendField(fs []Field, prefix string, a slog.Attr) []Field {
	a.Value = a.Value.Resolve()
	if a.Equal(slog.Attr{}) {
		return fs
	}
	if a.Value.Kind() == slog.KindGroup {
		if a.Key != "" {
			prefix += a.Key + "."
		}
		for _, g := range a.Value.Group() {
			fs = appendField(fs, prefix, g)
		}
		return fs
	}
	return append(fs, Field{Key: prefix + a.Key, Value: fieldValue(a.Value)})
}

// fieldValue maps a value onto a small set of stable, JSON-encodable
// types, so ring entries never retain caller state.
func fieldValue(v slog.Value) any {
	switch v.Kind() {
	case slog.KindString:
		return v.String()
	case slog.KindInt64:
		return v.Int64()
	case slog.KindUint64:
		return v.Uint64()
	case slog.KindFloat64:
		return v.Float64()
	case slog.KindBool:
		return v.Bool()
	case slog.KindDuration:
		return v.Duration().String()
	case slog.KindTime:
		return v.Time().Format(time.RFC3339Nano)
	}
	switch x := v.Any().(type) {
	case nil:
		return nil
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprint(v.Any())
}

// renderText formats one event as a single text line:
//
//	2026-08-06T12:00:00.000000Z INFO  gvfsproxy: shutting down sig=SIGTERM
func renderText(e Event) string {
	var b strings.Builder
	b.WriteString(time.Unix(0, e.TimeNs).UTC().Format("2006-01-02T15:04:05.000000Z"))
	b.WriteByte(' ')
	lv := strings.ToUpper(e.Level)
	b.WriteString(lv)
	for i := len(lv); i < 5; i++ {
		b.WriteByte(' ')
	}
	b.WriteByte(' ')
	if e.Component != "" {
		b.WriteString(e.Component)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	for _, f := range e.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(fieldText(f.Value))
	}
	b.WriteByte('\n')
	return b.String()
}

// fieldText renders one field value for the text sink, quoting strings
// that would be ambiguous in key=value form.
func fieldText(v any) string {
	s := fmt.Sprint(v)
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	if s == "" {
		return `""`
	}
	return s
}

// LintBoundedJSON validates a generic JSON diagnostic document (the
// /statusz endpoint): it must parse, be a JSON object, and every array
// anywhere inside it must hold at most maxArray elements — the
// "bounded" guarantee that a scrape can never be asked to swallow an
// unbounded dump.
func LintBoundedJSON(data []byte, maxArray int) error {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("malformed JSON: %v", err)
	}
	if _, ok := doc.(map[string]any); !ok {
		return fmt.Errorf("top-level value is %T, want object", doc)
	}
	return checkBounded(doc, maxArray, 0)
}

func checkBounded(v any, maxArray, depth int) error {
	if depth > 64 {
		return fmt.Errorf("nesting deeper than 64 levels")
	}
	switch x := v.(type) {
	case []any:
		if len(x) > maxArray {
			return fmt.Errorf("array of %d elements exceeds bound %d", len(x), maxArray)
		}
		for _, el := range x {
			if err := checkBounded(el, maxArray, depth+1); err != nil {
				return err
			}
		}
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := checkBounded(x[k], maxArray, depth+1); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
	}
	return nil
}
