package main

// The self-test runs every workload, timed and traced, with tiny
// windows and smoke sizes: it checks the benchmark's plumbing, not the
// program's speed.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

const smokeSeconds = 0.6

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every declared workload timed and traced. Every
// metric BENCHMARK.json declares must be emitted exactly once (a map
// cannot hold it twice) with a finite value and the declared unit,
// under a well-formed name, and nothing undeclared may appear; the
// traced run's span file must nest.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloadWhy))
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				want := map[string]string{}
				if traced {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				cfg := config{workload: w.Name, seed: 7, seconds: smokeSeconds, smoke: true, trace: traced, workdir: t.TempDir()}
				if traced {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
					t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
				}
				for name, m := range res.Metrics {
					unit, declared := want[name]
					switch {
					case !declared:
						t.Errorf("emits undeclared metric %s", name)
					case !nameRE.MatchString(name):
						t.Errorf("metric name %q is malformed", name)
					case m.Unit != unit || unit == "":
						t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is not finite", name)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must never be 0", name, m.Value)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("does not emit declared metric %s", name)
				}
				if traced {
					checkSpans(t, w.Name, cfg.traceOut)
				}
			})
		}
	}
}

// TestSpecMatchesDeclarations: BENCHMARK.json is what -spec prints.
func TestSpecMatchesDeclarations(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds != runSeconds || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", spec.RunSeconds, spec.Paths)
	}
	if len(spec.EndToEnd) != len(endToEndDecl) || len(spec.PerLayer) != len(perLayerDecl) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program declares %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndDecl), len(perLayerDecl))
	}
	for i, d := range endToEndDecl {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	for i, d := range perLayerDecl {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	for i, w := range workloadWhy {
		if spec.Workloads[i].Name != w[0] || spec.Workloads[i].Why != w[1] {
			t.Errorf("workloads[%d] = %+v, program declares %v", i, spec.Workloads[i], w)
		}
	}
}

// checkSpans: in the span file of a traced run every child lies inside
// its parent and shares its trace ID, self times are not negative, and
// (raw-client workloads) each client op has a trace ID of its own with
// the hops placed under it.
func checkSpans(t *testing.T, workload, out string) {
	t.Helper()
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	f.Close()
	ops := map[uint64]int{}
	var hops, origins int
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("%s: span %d has ID %d", workload, i+1, s.ID)
		}
		if s.Self < 0 || s.Dur < 0 {
			t.Errorf("%s: span %d (%s) has self %d dur %d", workload, s.ID, s.Name, s.Self, s.Dur)
		}
		switch s.Name {
		case spanClientOp:
			ops[s.Trace]++
			if (s.Trace == 0 && workload != "wan_clone") || s.Parent != 0 {
				t.Errorf("%s: client.op %d has trace %d parent %d", workload, s.ID, s.Trace, s.Parent)
			}
		case "hop0":
			hops++
		case spanOriginFS:
			if s.Parent != 0 {
				origins++
			}
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("%s: span %d precedes its parent %d", workload, s.ID, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur {
			t.Errorf("%s: span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", workload, s.ID, s.Name,
				s.Start, s.Start+s.Dur, p.Name, p.Start, p.Start+p.Dur)
		}
		if s.Trace != p.Trace {
			t.Errorf("%s: span %d has trace %d, its parent %d", workload, s.ID, s.Trace, p.Trace)
		}
	}
	if workload == "wan_clone" {
		// A Session issues its RPCs itself: ops carry no trace ID
		// and hop trees are roots.
		if hops == 0 {
			t.Errorf("wan_clone: no hop-0 records in the span file")
		}
		return
	}
	for id, n := range ops {
		if n != 1 {
			t.Errorf("%s: trace %d covers %d client ops", workload, id, n)
		}
	}
	if len(ops) == 0 || hops < len(ops)*9/10 {
		t.Errorf("%s: %d client ops but %d hop-0 records placed under them", workload, len(ops), hops)
	}
	if workload == "cold_scan" && origins < len(ops)*9/10 {
		t.Errorf("cold_scan: %d client ops but only %d origin.fs spans placed", len(ops), origins)
	}
}

// TestCorruptOriginByteFails: one flipped byte at the origin is
// reported as a failed operation, on the read path (payload compare)
// and on the flush path (origin compare).
func TestCorruptOriginByteFails(t *testing.T) {
	cfg := config{seed: 3, seconds: smokeSeconds, smoke: true, workdir: t.TempDir()}

	spec := rawSpecs["cold_scan"].scaled(true)
	s, err := setupRaw(cfg, spec, rawInputs(spec, cfg.seed), false)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := s.fs.LookupPath(imagePath(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.fs.Write(fh, 5*blockSize+17, []byte{s.images[0][5*blockSize+17] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	w, err := s.window(0, spec.blocks())
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if w.failed != 1 {
		t.Errorf("cold_scan over a corrupted origin: %d of %d ops failed, want exactly 1", w.failed, w.attempted)
	}

	// write_flush: a clean round, then one origin byte flipped before
	// the origin is compared again.
	spec = rawSpecs["write_flush"].scaled(true)
	ws, err := setupRaw(cfg, spec, rawInputs(spec, cfg.seed), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if ww, err := ws.window(0, 0); err != nil || ww.failed != 0 {
		t.Fatalf("clean write_flush round: %d failed, err %v", ww.failed, err)
	}
	if fh, err = ws.fs.LookupPath(imagePath(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.fs.Write(fh, 3*blockSize, []byte{ws.clients[1].img[3*blockSize] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	if attempted, failed, err := ws.verifyOrigin(); err != nil || failed != 1 {
		t.Errorf("write_flush with a corrupted origin block: %d of %d blocks failed (err %v), want exactly 1", failed, attempted, err)
	}
}

// TestQuartilesMatchPython pins quartiles() to the values Python's
// statistics.quantiles(v, n=4) gives for the same list.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 7, 3, 5, 8, 2, 10, 4, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
