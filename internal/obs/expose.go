package obs

// Prometheus text exposition, the linter the CI smoke job uses to
// reject malformed output, and the HTTP endpoint bundling /metrics,
// expvar and pprof.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"gvfs/internal/bufpool"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sorted by
// name, samples by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range f.sortedChildren() {
			switch f.kind {
			case KindCounter:
				v := ch.c.Value()
				if ch.cf != nil {
					v = ch.cf()
				}
				fmt.Fprintf(bw, "%s %d\n", sampleName(f.name, f.labels, ch.vals), v)
			case KindGauge:
				v := ch.g.Value()
				if ch.gf != nil {
					v = ch.gf()
				}
				fmt.Fprintf(bw, "%s %s\n", sampleName(f.name, f.labels, ch.vals), formatFloat(v))
			case KindHistogram:
				hv := ch.h.snapshot()
				labels := append(append([]string(nil), f.labels...), "le")
				for _, b := range hv.Buckets {
					vals := append(append([]string(nil), ch.vals...), formatLE(b.LE))
					fmt.Fprintf(bw, "%s %d", sampleName(f.name+"_bucket", labels, vals), b.Count)
					if b.Exemplar != nil {
						// OpenMetrics-style exemplar: links this bucket to
						// one traced call retained at /flightrec.
						fmt.Fprintf(bw, " # {trace_id=\"%s\"} %s",
							b.Exemplar.TraceIDHex(), formatFloat(b.Exemplar.Value))
					}
					bw.WriteByte('\n')
				}
				fmt.Fprintf(bw, "%s %s\n", sampleName(f.name+"_sum", f.labels, ch.vals), formatFloat(hv.Sum))
				fmt.Fprintf(bw, "%s %d\n", sampleName(f.name+"_count", f.labels, ch.vals), hv.Count)
			}
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return formatFloat(v)
}

// Lint checks Prometheus text exposition output for structural
// validity: every sample parses, belongs to a TYPE-declared family of
// a known type, and histogram series use the _bucket/_sum/_count
// naming with an le label on buckets. It is deliberately strict enough
// to catch the failure modes a hand-rolled encoder can produce.
func Lint(data []byte) error {
	types := make(map[string]string)
	var samples int
	sc := bufio.NewScanner(bytes.NewReader(data))
	scanBuf := bufpool.Get(1 << 20)
	defer bufpool.Put(scanBuf)
	sc.Buffer(scanBuf, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE without a type: %q", lineNo, line)
				}
				typ := strings.TrimSpace(fields[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = typ
			}
			continue
		}
		name, labels, _, exemplar, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		samples++
		if exemplar != "" {
			if !strings.HasSuffix(name, "_bucket") {
				return fmt.Errorf("line %d: exemplar on non-bucket sample %q", lineNo, name)
			}
			if err := lintExemplar(exemplar); err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		fam, suffix := name, ""
		if typ, ok := types[name]; !ok || typ == "histogram" {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, s) && types[strings.TrimSuffix(name, s)] == "histogram" {
					fam, suffix = strings.TrimSuffix(name, s), s
					break
				}
			}
		}
		typ, ok := types[fam]
		if !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if typ == "histogram" {
			if suffix == "" {
				return fmt.Errorf("line %d: histogram sample %q must end in _bucket/_sum/_count", lineNo, name)
			}
			if suffix == "_bucket" && !strings.Contains(labels, `le="`) {
				return fmt.Errorf("line %d: histogram bucket %q lacks an le label", lineNo, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition output")
	}
	return nil
}

// lintExemplar validates the `{trace_id="..."} value` suffix after a
// bucket sample's ` # ` separator.
func lintExemplar(ex string) error {
	const pre = `{trace_id="`
	if !strings.HasPrefix(ex, pre) {
		return fmt.Errorf("malformed exemplar %q", ex)
	}
	rest := ex[len(pre):]
	end := strings.Index(rest, `"}`)
	if end < 0 {
		return fmt.Errorf("malformed exemplar %q", ex)
	}
	id := rest[:end]
	if len(id) != 16 {
		return fmt.Errorf("exemplar trace_id %q is not 16 hex digits", id)
	}
	if _, err := strconv.ParseUint(id, 16, 64); err != nil {
		return fmt.Errorf("exemplar trace_id %q is not hex: %v", id, err)
	}
	val := strings.TrimSpace(rest[end+2:])
	if _, err := strconv.ParseFloat(val, 64); err != nil {
		return fmt.Errorf("exemplar value %q: %v", val, err)
	}
	return nil
}

// parseSample splits `name{labels} value [# exemplar]` and validates
// the pieces.
func parseSample(line string) (name, labels string, value float64, exemplar string, err error) {
	rest := line
	if i := strings.Index(rest, " # "); i >= 0 {
		exemplar = strings.TrimSpace(rest[i+3:])
		rest = strings.TrimSpace(rest[:i])
	}
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, "", fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, "", fmt.Errorf("sample %q has no value", line)
		}
		name = fields[0]
		rest = fields[1]
	}
	if !validMetricName(name) {
		return "", "", 0, "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", "", 0, "", fmt.Errorf("sample %q has no value", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, "", fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	return name, labels, value, exemplar, nil
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Handler serves the registry at /metrics content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// expvarOnce guards the process-wide expvar publication: expvar.Publish
// panics on duplicate names, and several registries (tests, multi-node
// benches) may each start an endpoint.
var expvarOnce sync.Once

// Endpoint bundles every diagnostic surface one daemon exposes. All
// fields are optional; absent ones serve empty documents so scrapers
// and dashboards can treat the URL set as uniform across a chain.
type Endpoint struct {
	Registry *Registry
	Tracer   *Tracer
	Log      *Ring[Event] // the /logz events
	Flight   *FlightRecorder
	// Statusz, when set, renders the daemon-specific /statusz JSON
	// document (the proxy's accounting tables).
	Statusz func(w io.Writer) error
	// Cachez, when set, renders the cache-analytics JSON document
	// (miss-ratio curves, working sets, what-if predictions).
	Cachez func(w io.Writer) error
}

// Mux builds the HTTP handler set:
//
//	/metrics       Prometheus text exposition (with exemplars)
//	/debug/vars    expvar (Go runtime memstats + gvfs snapshot)
//	/debug/pprof/  the standard pprof handlers
//	/traces        JSON dump of the trace ring
//	/logz          JSON dump of the structured log ring
//	/flightrec     JSON dump of the flight recorder
//	/statusz       daemon accounting document (when Statusz set)
//	/cachez        cache-analytics document (when Cachez set)
func (e Endpoint) Mux() *http.ServeMux {
	reg := e.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	expvarOnce.Do(func() {
		expvar.Publish("gvfs", expvar.Func(func() any { return reg.Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	jsonHandler := func(write func(io.Writer) error) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			write(w)
		}
	}
	mux.HandleFunc("/traces", jsonHandler(e.Tracer.WriteJSON))
	mux.HandleFunc("/logz", jsonHandler(func(w io.Writer) error { return WriteLogz(w, e.Log) }))
	mux.HandleFunc("/flightrec", jsonHandler(e.Flight.WriteJSON))
	for path, write := range map[string]func(io.Writer) error{"/statusz": e.Statusz, "/cachez": e.Cachez} {
		if write == nil {
			write = func(w io.Writer) error {
				_, err := io.WriteString(w, "{}\n")
				return err
			}
		}
		mux.HandleFunc(path, jsonHandler(write))
	}
	return mux
}

// ListenAndServe starts the endpoint on addr and returns the listener
// (close it to stop). Errors from the HTTP server after startup are
// dropped: diagnostics must never take the data path down.
func (e Endpoint) ListenAndServe(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(l, e.Mux())
	return l, nil
}

// writeIndented encodes doc as the indented JSON every document of
// the endpoint is served as.
func writeIndented(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ParseText parses Prometheus text exposition output into a flat
// sample map keyed by `name` or `name{labels}`. Consumers that poll
// /metrics (cmd/gvfstop, benches) share this instead of re-scraping by
// hand.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	scanBuf := bufpool.Get(1 << 20)
	defer bufpool.Put(scanBuf)
	sc.Buffer(scanBuf, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, _, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		out[key] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtractExemplarTraceIDs returns every exemplar trace ID (fixed-width
// hex) present in Prometheus text exposition output, deduplicated, in
// first-seen order. TestTracePropagationAcrossChain (internal/proxy)
// uses it to prove each exposed exemplar resolves at /flightrec.
func ExtractExemplarTraceIDs(data []byte) []string {
	var out []string
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(data))
	scanBuf := bufpool.Get(1 << 20)
	defer bufpool.Put(scanBuf)
	sc.Buffer(scanBuf, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		_, _, _, exemplar, err := parseSample(line)
		if err != nil || exemplar == "" {
			continue
		}
		const pre = `{trace_id="`
		rest := strings.TrimPrefix(exemplar, pre)
		if rest == exemplar {
			continue
		}
		end := strings.Index(rest, `"`)
		if end < 0 {
			continue
		}
		id := rest[:end]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
