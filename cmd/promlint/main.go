// Command promlint validates a GVFS daemon's diagnostic surfaces — the
// CI guard that a live proxy serves well-formed, bounded output. It
// checks Prometheus text exposition (including exemplar syntax) from
// -url or standard input, the /statusz accounting document with
// -statusz-url, the /logz structured-log ring with -logz-url, and the
// /cachez cache-analytics document with -cachez-url; any combination
// may be given and the first failure exits non-zero. -require lists
// metric names the exposition must contain, which is how CI pins the
// gvfs_cachean_* surface.
//
// Usage:
//
//	promlint -url http://127.0.0.1:9049/metrics \
//	         -require gvfs_cachean_hit_ratio,gvfs_cachean_working_set_bytes
//	promlint -statusz-url http://127.0.0.1:9049/statusz \
//	         -logz-url http://127.0.0.1:9049/logz \
//	         -cachez-url http://127.0.0.1:9049/cachez
//	gvfsproxy ... | promlint
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gvfs/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body: parses args, fetches each requested
// surface, and lints it. Reading stdin happens only when no URL flag
// selects a surface.
func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("promlint", flag.ContinueOnError)
	fs.SetOutput(out)
	url := fs.String("url", "", "scrape this /metrics endpoint (empty = read stdin unless another -*-url is given)")
	statuszURL := fs.String("statusz-url", "", "validate this /statusz endpoint as bounded JSON")
	logzURL := fs.String("logz-url", "", "validate this /logz endpoint as a bounded structured-log document")
	cachezURL := fs.String("cachez-url", "", "validate this /cachez cache-analytics endpoint as bounded JSON")
	require := fs.String("require", "", "comma-separated metric names the exposition must contain")
	maxArray := fs.Int("max-array", 4096, "array bound applied to -statusz-url documents")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	if *url != "" || (*statuszURL == "" && *logzURL == "" && *cachezURL == "") {
		var data []byte
		var err error
		if *url != "" {
			data, err = fetch(client, *url)
		} else {
			data, err = io.ReadAll(stdin)
		}
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := obs.Lint(data); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := checkRequired(data, *require); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(out, "promlint: metrics ok (%d bytes)\n", len(data))
	}
	if *statuszURL != "" {
		data, err := fetch(client, *statuszURL)
		if err != nil {
			return fmt.Errorf("statusz: %w", err)
		}
		if err := obs.LintBoundedJSON(data, *maxArray); err != nil {
			return fmt.Errorf("statusz: %w", err)
		}
		fmt.Fprintf(out, "promlint: statusz ok (%d bytes)\n", len(data))
	}
	if *logzURL != "" {
		data, err := fetch(client, *logzURL)
		if err != nil {
			return fmt.Errorf("logz: %w", err)
		}
		if err := obs.LintLogz(data); err != nil {
			return fmt.Errorf("logz: %w", err)
		}
		fmt.Fprintf(out, "promlint: logz ok (%d bytes)\n", len(data))
	}
	if *cachezURL != "" {
		data, err := fetch(client, *cachezURL)
		if err != nil {
			return fmt.Errorf("cachez: %w", err)
		}
		if err := obs.LintBoundedJSON(data, *maxArray); err != nil {
			return fmt.Errorf("cachez: %w", err)
		}
		fmt.Fprintf(out, "promlint: cachez ok (%d bytes)\n", len(data))
	}
	return nil
}

// checkRequired verifies each comma-separated metric name appears in
// the exposition as a sample (bare, labelled, or histogram-suffixed).
func checkRequired(data []byte, require string) error {
	if require == "" {
		return nil
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		names[name] = true
	}
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		if !names[want] && !names[want+"_sum"] && !names[want+"_count"] {
			return fmt.Errorf("required metric %q not found in exposition", want)
		}
	}
	return nil
}

// fetch reads one diagnostic URL in full.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
