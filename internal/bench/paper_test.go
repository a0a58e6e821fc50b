//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// This file is built only with GOEXPERIMENT=synctest: synctest.Run needs
// the synchronous timer channels that go 1.22 in go.mod would otherwise
// turn off.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gvfs/internal/bubble"
)

// TestPaperInVirtualTime runs the paper's figures and Table 1 at 1/64 of
// paper scale in a testing/synctest bubble, where every link's round
// trips and bandwidth cost virtual time only, and asserts the direction
// of each result the paper reports. It then runs the remaining
// experiments of the paper set and checks that each table fills.
func TestPaperInVirtualTime(t *testing.T) {
	wall := time.Now()
	bubble.Run(t, func(t *testing.T) {
		o := Options{Scale: 64, WorkDir: t.TempDir()}
		run := func(f func() (*Table, error)) *Table {
			t.Helper()
			tab, err := f()
			if err != nil {
				t.Fatal(err)
			}
			checkFilled(t, tab)
			var buf strings.Builder
			tab.Print(&buf)
			t.Log("\n" + buf.String())
			return tab
		}
		cell := func(tab *Table, row, col string) float64 {
			t.Helper()
			v, ok := tab.Value(row, col)
			if !ok {
				t.Fatalf("%s has no cell %q/%q", tab.ID, row, col)
			}
			return v
		}
		faster := func(what string, a, b float64) {
			t.Helper()
			if !(a < b) {
				t.Errorf("%s: %.3f s, want under %.3f s", what, a, b)
			}
		}

		fig3 := run(o.RunFig3)
		faster("fig3 WAN+C phase 1 against WAN", cell(fig3, "WAN+C", "Phase 1"), cell(fig3, "WAN", "Phase 1"))
		faster("fig3 WAN+C total against WAN", cell(fig3, "WAN+C", "Total"), cell(fig3, "WAN", "Total"))

		fig4 := run(o.RunFig4)
		faster("fig4 WAN+C first iteration against WAN", cell(fig4, "WAN+C", "First iter"), cell(fig4, "WAN", "First iter"))
		faster("fig4 WAN+C mean of iterations 2-20 against WAN", cell(fig4, "WAN+C", "Mean 2-20"), cell(fig4, "WAN", "Mean 2-20"))

		fig5 := run(o.RunFig5)
		faster("fig5 warm WAN+C against warm WAN", cell(fig5, "WAN+C run2", "Total"), cell(fig5, "WAN run2", "Total"))

		fig6 := run(o.RunFig6)
		for i := 2; i <= 8; i++ {
			col := fmt.Sprintf("clone %d", i)
			faster("fig6 WAN-S3 against WAN-S2, "+col, cell(fig6, "WAN-S3", col), cell(fig6, "WAN-S2", col))
			faster("fig6 WAN-S1 "+col+" against its clone 1", cell(fig6, "WAN-S1", col), cell(fig6, "WAN-S1", "clone 1"))
		}

		table1 := run(o.RunTable1)
		for _, col := range []string{"cold caches", "warm caches"} {
			faster("table1 parallel against sequential, "+col, cell(table1, "WAN-P (parallel)", col), cell(table1, "WAN-S1 (sequential)", col))
		}

		for _, f := range []func() (*Table, error){o.RunZeroFilter, o.RunPersistentVM,
			o.RunAblationWritePolicy, o.RunAblationMetadata, o.RunAblationCacheGeometry,
			o.RunAblationTunnel, o.RunAblationReadAhead} {
			run(f)
		}
	})
	t.Logf("wall time: %v", time.Since(wall))
}

// TestFailoverInVirtualTime runs the failover experiment in a bubble with
// a results directory: over local replicas both of the kill phase's p99s
// are 0 ms of virtual time, which must make a ratio of 1, not a NaN that
// BENCH_failover.json cannot hold.
func TestFailoverInVirtualTime(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		o := Options{Scale: 64, WorkDir: t.TempDir(), ResultsDir: t.TempDir()}
		if _, err := o.RunFailover(); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(o.ResultsDir, "BENCH_failover.json"))
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Kill failoverKill `json:"kill"`
			Pass bool         `json:"pass"`
		}
		if err := json.Unmarshal(blob, &report); err != nil {
			t.Fatal(err)
		}
		if k := report.Kill; !report.Pass || k.SteadyP99Ms != 0 || k.FaultP99Ms != 0 || k.Ratio != 1 {
			t.Errorf("kill phase in virtual time: p99 %v -> %v ms, ratio %v, pass %v; want 0 -> 0, 1, true",
				k.SteadyP99Ms, k.FaultP99Ms, k.Ratio, report.Pass)
		}
	})
}

// checkFilled fails t unless tab has rows, each with a finite value in
// every column.
func checkFilled(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Errorf("%s: no rows", tab.ID)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Errorf("%s %q: %d values for %d columns", tab.ID, r.Label, len(r.Values), len(tab.Columns))
		}
		for i, v := range r.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %q: column %d is %v", tab.ID, r.Label, i, v)
			}
		}
	}
}
