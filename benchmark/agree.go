package main

// Driving modes on top of single runs: every workload once (timed and
// traced), and -agree, which repeats the acceptance procedure — ten
// seeds per workload, two sets back to back — and checks the program
// against its own bounds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultsDir is where -agree leaves the baseline for the next change.
const resultsDir = "benchmark/results"

// child runs one workload in a fresh process of this binary, so heap,
// rusage and first-run effects do not leak between workloads, and
// returns the environment printed on its first line and the result
// printed on its last.
func child(cfg config, echo bool) (environment, result, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
	if cfg.workdir != "" {
		args = append(args, "-workdir", cfg.workdir)
	}
	if cfg.traceOut != "" {
		args = append(args, "-trace-out", cfg.traceOut)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if echo {
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	}
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var env environment
	var res result
	parseErr := json.Unmarshal(lines[0], &env)
	if parseErr == nil {
		parseErr = json.Unmarshal(lines[len(lines)-1], &res)
	}
	switch {
	case runErr != nil:
		return env, res, fmt.Errorf("%s: %w", cfg.workload, runErr)
	case parseErr != nil || res.Metrics == nil:
		return env, res, fmt.Errorf("%s: no environment on the first line or no result on the last", cfg.workload)
	}
	return env, res, nil
}

// runAll is the default command: each workload timed, then traced.
func runAll(cfg config) error {
	var firstErr error
	for _, w := range workloadWhy {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = w[0], traced
			if traced {
				c.traceOut = spanFile(cfg.traceOut, w[0])
			}
			if _, _, err := child(c, true); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// spanFile names a workload's span file: base with the workload before
// the extension, or a file under .bench_build when no base was given.
func spanFile(base, workload string) string {
	if base == "" {
		if os.MkdirAll(".bench_build", 0o755) != nil {
			return ""
		}
		return filepath.Join(".bench_build", "spans-"+workload+".jsonl")
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + workload + ext
}

// crossCheck compares the traced window's budget lines with the probes
// of the same layers and names every pair more than 10% apart. Each
// pair is checked in the workload whose traced run holds the probe. The
// two are not expected to agree everywhere — a probe runs its layer alone
// with warm caches, the window runs it under two clients — and that
// difference is the information.
func crossCheck(m metrics) {
	fmt.Println("budget cross-check (traced window vs isolated probe):")
	for _, pair := range [][2]string{
		{"trace.hop0_block_cache_us", "cache.get_hit_us"},
		{"trace.hop0_block_cache_us", "cache.put_dirty_us"}, // the block_cache span of a WRITE is the journaled dirty Put
		{"trace.origin_fs_us", "memfs.read_us"},
		{"trace.hop0_transport_us", "sunrpc.echo_rtt_p50_us"},
	} {
		t, p := m[pair[0]].Value, m[pair[1]].Value
		if t == 0 || p == 0 {
			continue // layer idle here, or its probe belongs to another workload
		}
		verdict := "agree within 10%"
		if d := (t - p) / p; d > 0.10 || d < -0.10 {
			verdict = fmt.Sprintf("DISAGREE by %+.0f%%", 100*d)
		}
		fmt.Printf("  %s %.3f vs %s %.3f: %s\n", pair[0], t, pair[1], p, verdict)
	}
}

// quartiles is statistics.quantiles(v, n=4) of Python: the exclusive
// method, which the acceptance procedure uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// agreeRuns is the number of seeds per workload in each set: what the
// acceptance procedure uses.
const agreeRuns = 10

// setSummary is one set of runs: per workload and end-to-end metric the
// values of every seed, and one traced run's per-layer metrics.
type setSummary struct {
	Env      environment                     `json:"env"` // as printed by the set's first run
	Seeds    []int64                         `json:"seeds"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"` // workload → metric → one value per seed
	PerLayer map[string]metrics              `json:"per_layer"`  // workload → one traced run
	Seconds  float64                         `json:"wall_seconds"`
}

func runSet(cfg config) (*setSummary, error) {
	start := time.Now()
	s := &setSummary{EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]metrics{}}
	for i := 0; i < agreeRuns; i++ {
		s.Seeds = append(s.Seeds, cfg.seed+int64(i))
	}
	for _, w := range workloadWhy {
		vals := map[string][]float64{}
		for _, seed := range s.Seeds {
			c := cfg
			c.workload, c.seed, c.trace = w[0], seed, false
			env, res, err := child(c, false)
			if err != nil {
				return nil, err
			}
			if s.Env.Workload == "" {
				s.Env = env
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Printf("  %s seed %d: %d ops, %d failed\n", w[0], seed, res.Attempted, res.Failed)
		}
		s.EndToEnd[w[0]] = vals
		c := cfg
		c.workload, c.trace = w[0], true
		_, res, err := child(c, false)
		if err != nil {
			return nil, err
		}
		s.PerLayer[w[0]] = res.Metrics
	}
	s.Seconds = time.Since(start).Seconds()
	return s, nil
}

// runAgree measures two sets and applies the acceptance rules: every
// metric's interquartile spread (as a share of its median) within its
// bound, setup_s excepted, and no second-set median worse than the
// first by more than the bound.
func runAgree(cfg config) error {
	var sets [2]*setSummary
	for i := range sets {
		fmt.Printf("set %d of 2\n", i+1)
		s, err := runSet(cfg)
		if err != nil {
			return err
		}
		sets[i] = s
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	for i, s := range sets {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(resultsDir, fmt.Sprintf("agree_set%d.json", i+1)), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Two sets of %d seeds per workload, %g s per run, same code (git %s)\n\n", agreeRuns, cfg.seconds, gitSHA())
	fmt.Fprintf(&b, "Spread is the distance between the first and third quartile as a share of the median\n")
	fmt.Fprintf(&b, "(Python's `statistics.quantiles(values, n=4)`); drift is how much worse the second set's\nmedian is than the first's. Both must stay within the bound (spread of `setup_s` excepted).\n\n")
	fmt.Fprintf(&b, "| workload | metric | unit | median 1 | median 2 | spread 1 | spread 2 | drift | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloadWhy {
		for _, d := range endToEndDecl {
			v1, v2 := sets[0].EndToEnd[w[0]][d.name], sets[1].EndToEnd[w[0]][d.name]
			if len(v1) != agreeRuns || len(v2) != agreeRuns {
				return fmt.Errorf("%s: %s was not reported by every run", w[0], d.name)
			}
			a1, m1, c1 := quartiles(v1)
			a2, m2, c2 := quartiles(v2)
			s1, s2 := (c1-a1)/m1, (c2-a2)/m2
			drift := (m2 - m1) / m1
			if d.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if drift > d.bound || (d.name != "setup_s" && (s1 > d.bound || s2 > d.bound)) {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w[0], d.name, d.unit, m1, m2, 100*s1, 100*s2, 100*drift, 100*d.bound, verdict)
		}
	}
	fmt.Fprintf(&b, "\nWall time: set 1 %.0f s, set 2 %.0f s.\n", sets[0].Seconds, sets[1].Seconds)
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join(resultsDir, "agree.md"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}
