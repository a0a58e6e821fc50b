package stack

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/obs"
	"gvfs/internal/tunnel"
)

func parseFlags(t *testing.T, args ...string) *ProxyFlags {
	t.Helper()
	fs := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	f := BindProxyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestProxyFlagsFullCommandLine(t *testing.T) {
	keyFile := filepath.Join(t.TempDir(), "session.key")
	key := make([]byte, tunnel.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	if err := os.WriteFile(keyFile, key, 0o600); err != nil {
		t.Fatal(err)
	}

	f := parseFlags(t,
		"-listen", "127.0.0.1:9999",
		"-upstream", "img:7049",
		"-keyfile", keyFile,
		"-cache-dir", "/tmp/cache",
		"-cache-banks", "16", "-cache-sets", "4", "-cache-assoc", "2",
		"-cache-block", "4096",
		"-policy", "write-through",
		"-journal-sync", "always",
		"-filecache-dir", "/tmp/fcache", "-filechan", "img:7050",
		"-readahead", "4",
		"-idle-writeback", "5s", "-call-timeout", "2s", "-max-retries", "3",
		"-failure-threshold", "7", "-probe-interval", "1s",
		"-metrics", "127.0.0.1:9049", "-trace-ring", "256",
		"-flightrec", "128", "-slow-threshold", "150ms",
		"-log-level", "debug", "-log-file", "/tmp/gvfs.log",
	)
	if f.Listen != "127.0.0.1:9999" || f.MetricsAddr != "127.0.0.1:9049" || f.StatsEvery != 0 {
		t.Errorf("daemon fields wrong: %+v", f)
	}

	opts, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if opts.UpstreamAddr != "img:7049" {
		t.Errorf("UpstreamAddr = %q", opts.UpstreamAddr)
	}
	if string(opts.UpstreamKey) != string(key) {
		t.Error("keyfile contents not loaded into UpstreamKey")
	}
	cc := opts.CacheConfig
	if cc == nil {
		t.Fatal("cache-dir must produce a CacheConfig")
	}
	want := cache.Config{Dir: "/tmp/cache", Banks: 16, SetsPerBank: 4, Assoc: 2,
		BlockSize: 4096, Policy: cache.WriteThrough,
		Journal: true, JournalSync: cache.SyncAlways}
	if *cc != want {
		t.Errorf("CacheConfig = %+v, want %+v", *cc, want)
	}
	if opts.FileChanAddr != "img:7050" {
		t.Errorf("file channel address wrong: %+v", opts)
	}
	if string(opts.FileChanKey) != string(key) {
		t.Error("file channel must reuse the session key")
	}
	if opts.ReadAhead != 4 || opts.IdleWriteBack != 5*time.Second {
		t.Errorf("behaviour knobs wrong: %+v", opts)
	}
	if opts.UpstreamCallTimeout != 2*time.Second || opts.UpstreamMaxRetries != 3 {
		t.Errorf("fault-tolerance knobs wrong: %+v", opts)
	}
	if opts.FailureThreshold != 7 || opts.ProbeInterval != time.Second {
		t.Errorf("breaker knobs wrong: %+v", opts)
	}
	if opts.TraceRing != 256 {
		t.Errorf("TraceRing = %d, want 256", opts.TraceRing)
	}
	if opts.FlightRing != 128 || opts.SlowThreshold != 150*time.Millisecond {
		t.Errorf("flight recorder knobs wrong: ring=%d slow=%v", opts.FlightRing, opts.SlowThreshold)
	}
	if opts.ListenAddr != "" {
		t.Errorf("Options() set ListenAddr = %q; -listen is the daemon's to copy in", opts.ListenAddr)
	}
	if f.Log == nil {
		t.Fatal("BindProxyFlags must bind log flags")
	}
	if f.Log.Level != "debug" || f.Log.File != "/tmp/gvfs.log" {
		t.Errorf("log flags wrong: %+v", f.Log)
	}
}

func TestLogFlagsLogger(t *testing.T) {
	logFile := filepath.Join(t.TempDir(), "out.log")
	fs := flag.NewFlagSet("gvfsd", flag.ContinueOnError)
	lf := BindLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "warn", "-log-file", logFile}); err != nil {
		t.Fatal(err)
	}
	events := obs.NewRing[obs.Event](8)
	reg := obs.NewRegistry()
	logger, closeLog, err := lf.Logger("testd", reg, events)
	if err != nil {
		t.Fatalf("Logger: %v", err)
	}
	defer closeLog()
	logger.Info("below threshold")
	logger.Warn("at threshold", "k", "v")
	data, err := os.ReadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, " WARN  testd: at threshold k=v\n") || strings.Contains(out, "below threshold") {
		t.Errorf("level filter or line format not applied to file sink:\n%s", out)
	}
	if evs := events.Values(); len(evs) != 1 || evs[0].Msg != "at threshold" || evs[0].Component != "testd" {
		t.Errorf("/logz events = %+v, want the single warn event of testd", evs)
	}
	if n := reg.Snapshot().Counters[`gvfs_log_events_total{level="warn"}`]; n != 1 {
		t.Errorf("warn events counted %d, want 1", n)
	}

	// Each -log-level admits its own severity and the ones above it.
	for level, lowest := range map[string]int{"debug": 0, "info": 1, "warn": 2, "warning": 2, "error": 3} {
		events := obs.NewRing[obs.Event](8)
		l, closeLog, err := (&LogFlags{Level: level}).Logger("testd", nil, events)
		if err != nil {
			t.Fatalf("-log-level %s: %v", level, err)
		}
		closeLog()
		l.Debug("0")
		l.Info("1")
		l.Warn("2")
		l.Error("3")
		var got []string
		for _, e := range events.Values() {
			got = append(got, e.Msg)
		}
		if want := []string{"0", "1", "2", "3"}[lowest:]; !reflect.DeepEqual(got, want) {
			t.Errorf("-log-level %s recorded %v, want %v", level, got, want)
		}
	}

	// An unknown level is an error.
	bad := &LogFlags{Level: "shout"}
	if _, _, err := bad.Logger("testd", nil, nil); err == nil {
		t.Error("bogus -log-level must be rejected")
	}
}

func TestProxyFlagsDefaultsAndErrors(t *testing.T) {
	// Defaults: no cache, write-back policy.
	f := parseFlags(t, "-upstream", "up:1")
	opts, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if opts.CacheConfig != nil || opts.FileChanAddr != "" || opts.UpstreamKey != nil {
		t.Errorf("defaults produced non-empty optional config: %+v", opts)
	}

	// Missing -upstream is an error.
	if _, err := parseFlags(t).Options(); err == nil {
		t.Error("empty -upstream must be rejected")
	}
	// Unknown policy is an error.
	if _, err := parseFlags(t, "-upstream", "u:1", "-policy", "bogus").Options(); err == nil {
		t.Error("bogus policy must be rejected")
	}
	// Unknown journal sync mode is an error.
	if _, err := parseFlags(t, "-upstream", "u:1", "-journal-sync", "bogus").Options(); err == nil {
		t.Error("bogus journal-sync must be rejected")
	}
	// Journaling is always on, with batched sync by default.
	f2 := parseFlags(t, "-upstream", "u:1", "-cache-dir", "/tmp/c")
	opts2, err := f2.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !opts2.CacheConfig.Journal || opts2.CacheConfig.JournalSync != cache.SyncBatch {
		t.Errorf("journal defaults wrong: %+v", opts2.CacheConfig)
	}
	// Bad keyfile (wrong size) is an error.
	short := filepath.Join(t.TempDir(), "short.key")
	if err := os.WriteFile(short, []byte("tiny"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags(t, "-upstream", "u:1", "-keyfile", short).Options(); err == nil {
		t.Error("short keyfile must be rejected")
	}
}

// TestEveryFlagReachesOptions sets each registered flag, one at a time,
// to a value other than the one it had, and requires that either
// Options() or a daemon-level field changes: a flag that is bound but
// never consumed cannot reappear. It also pins the size of the flag
// surface and that no setting is declared in both structs.
func TestEveryFlagReachesOptions(t *testing.T) {
	keyFile := filepath.Join(t.TempDir(), "session.key")
	if err := os.WriteFile(keyFile, make([]byte, tunnel.KeySize), 0o600); err != nil {
		t.Fatal(err)
	}
	// Every subsystem on, so a flag that only matters inside one (cache
	// geometry, QoS, replication) shows in the options.
	base := []string{"-backend", "repl", "-replicas", "objstore:/a", "-objstore-dir", "/o",
		"-upstream", "u:1", "-cache-dir", "/c", "-qos"}
	// Strings that Options() or the logger parse need a valid value.
	valid := map[string]string{
		"backend": "objstore", "policy": "write-through", "journal-sync": "always",
		"keyfile": keyFile, "log-level": "debug",
	}
	type outcome struct {
		Opts   ProxyOptions
		Daemon []any
	}
	result := func(args []string) outcome {
		t.Helper()
		f := parseFlags(t, args...)
		opts, err := f.Options()
		if err != nil {
			t.Fatalf("Options(%v): %v", args, err)
		}
		return outcome{opts, []any{f.Listen, f.MetricsAddr, f.StatsEvery, *f.Log}}
	}
	want := result(base)

	fs := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	BindProxyFlags(fs)
	if err := fs.Parse(base); err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		val, ok := valid[fl.Name]
		if !ok {
			switch fl.Value.(flag.Getter).Get().(type) {
			case bool:
				val = map[string]string{"true": "false", "false": "true"}[fl.Value.String()]
			case int:
				val = "7"
			case float64:
				val = "0.5"
			case time.Duration:
				val = "7s"
			default:
				val = "x"
			}
		}
		if val == fl.Value.String() {
			t.Fatalf("-%s: test value %q is the value it already has", fl.Name, val)
		}
		got := result(append(append([]string{}, base...), "-"+fl.Name+"="+val))
		if fl.Name == ignoredFlag { // declared in compat.go for benchmark/chain.go
			if !reflect.DeepEqual(got, want) {
				t.Errorf("-%s=%s changes the options; it is parsed and ignored", fl.Name, val)
			}
			return
		}
		if reflect.DeepEqual(got, want) {
			t.Errorf("-%s=%s changes neither Options() nor a daemon-level field", fl.Name, val)
		}
	})
	// Defaults instead of knobs: health tracking, index reload and the
	// journal are always on, and the values nobody set are constants.
	if n > 39 {
		t.Errorf("BindProxyFlags registers %d flags, want <= 39", n)
	}
	for _, gone := range []string{"statusz-topn", "audit-ring", "acct-entries", "acct-ttl",
		"cachean-sample-rate", "cachean-window", "cache-stripes", "readahead-pipeline",
		"repl-fail-threshold", "repl-probe-interval",
		"degraded-reads", "persist-index", "journal", "crashpoint",
		"qos-quantum", "brownout-exit", "log-ring", "repl-hedge-quantile"} {
		if fs.Lookup(gone) != nil {
			t.Errorf("-%s is registered again; it was deleted as a one-value or duplicate knob", gone)
		}
	}

	ft, ot := reflect.TypeOf(ProxyFlags{}), reflect.TypeOf(ProxyOptions{})
	for i := 0; i < ft.NumField(); i++ {
		if _, dup := ot.FieldByName(ft.Field(i).Name); dup {
			t.Errorf("field %s is declared in both ProxyFlags and ProxyOptions", ft.Field(i).Name)
		}
	}
	if ot.NumField() > 34 {
		t.Errorf("ProxyOptions has %d fields, want <= 34", ot.NumField())
	}
}

// TestDesignFlagTable holds DESIGN.md §3.1's flag table to what
// BindProxyFlags registers: the same names, each with the same default
// (`""` for an empty string; a zero duration is written 0).
func TestDesignFlagTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "### 3.1 Configuration surface")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3.1 Configuration surface")
	}
	text = text[start:]
	if end := strings.Index(text[1:], "\n### "); end >= 0 {
		text = text[:end+1]
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\| ([^|]*) \\|")
	table := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(text, -1) {
		if _, dup := table[m[1]]; dup {
			t.Errorf("-%s has two rows", m[1])
		}
		table[m[1]] = strings.TrimSpace(m[2])
	}

	fs := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	BindProxyFlags(fs)
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		want := fl.DefValue
		switch want {
		case "":
			want = `""`
		case "0s":
			want = "0"
		}
		got, ok := table[fl.Name]
		switch {
		case !ok:
			t.Errorf("-%s is registered but has no row in DESIGN.md §3.1", fl.Name)
		case got != want:
			t.Errorf("-%s: DESIGN.md §3.1 says default %s, BindProxyFlags registers %s", fl.Name, got, want)
		}
		delete(table, fl.Name)
	})
	for name := range table {
		t.Errorf("DESIGN.md §3.1 has a row for -%s, which BindProxyFlags does not register", name)
	}
	if want := "— " + fmt.Sprint(n) + " flags;"; !strings.Contains(strings.Join(strings.Fields(text), " "), want) {
		t.Errorf("DESIGN.md §3.1 does not say %q", want)
	}
}
