package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"gvfs/internal/memfs"
	"gvfs/internal/stack/stacktest"
)

func TestTableAddRowAndValue(t *testing.T) {
	tab := &Table{ID: "t", Title: "test", Columns: []string{"a", "b"}}
	tab.AddRow("row1", time.Second, 2*time.Second)
	if v, ok := tab.Value("row1", "a"); !ok || v != 1 {
		t.Errorf("Value = %v %v", v, ok)
	}
	if v, ok := tab.Value("row1", "b"); !ok || v != 2 {
		t.Errorf("Value = %v %v", v, ok)
	}
	if _, ok := tab.Value("row1", "zz"); ok {
		t.Error("unknown column found")
	}
	if _, ok := tab.Value("nope", "a"); ok {
		t.Error("unknown row found")
	}
}

// TestSignedOverheadNotes: an overhead prints with its own sign, so a
// WAN+C run faster than Local reads -1%, not +-1%, and a slower one +5%.
func TestSignedOverheadNotes(t *testing.T) {
	var o Options
	fig5 := &Table{Columns: []string{"Total"}}
	fig5.AddRow("Local run1", 100*time.Second)
	fig5.AddRow("WAN+C run1", 105*time.Second)
	fig5.AddRow("Local run2", 100*time.Second)
	fig5.AddRow("WAN+C run2", 99*time.Second)
	o.annotateFig5(fig5)
	fig4 := &Table{Columns: []string{"Mean 2-20"}}
	fig4.AddRow(string(Local), 100*time.Second)
	fig4.AddRow(string(WANC), 94*time.Second)
	o.annotateFig4(fig4)
	notes := strings.Join(append(fig5.Notes, fig4.Notes...), "\n")
	for _, want := range []string{
		"cold WAN+C overhead vs Local: +5% ",
		"warm WAN+C overhead vs Local: -1% ",
		"steady-state WAN+C vs Local: -6% ",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes lack %q:\n%s", want, notes)
		}
	}
	if strings.Contains(notes, "+-") {
		t.Errorf("a note reads +-:\n%s", notes)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{ID: "fig9", Title: "demo", Scale: 64, Columns: []string{"x"}}
	tab.AddRow("r", 1500*time.Millisecond)
	tab.AddNote("a note with %d", 42)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"FIG9", "demo", "1.50", "a note with 42", "multiply by 64"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 64 {
		t.Errorf("default scale = %v", o.scale())
	}
	if o.pagePages() <= 0 {
		t.Error("page budget must be positive")
	}
	big := Options{Scale: 1 << 20}
	if big.pagePages() < 16 {
		t.Error("page budget floor violated")
	}
}

func TestCacheConfigSizing(t *testing.T) {
	o := Options{Scale: 64}
	cfg := o.cacheConfig(0)
	capacity := cfg.Capacity()
	want := uint64(8 << 30 / 64)
	ratio := float64(capacity) / float64(want)
	if math.Abs(ratio-1) > 0.5 {
		t.Errorf("capacity = %d, want ~%d", capacity, want)
	}
	if cfg.BlockSize != 8192 || cfg.Assoc != 16 {
		t.Errorf("geometry = %+v", cfg)
	}
}

// TestScenarioChains checks the §4.2 chains: Local mounts the image
// server with no link and no client proxy, the others cross a link (the
// LAN's RTT below the WAN's) through one client proxy, and only WAN+C's
// proxy has a disk cache.
func TestScenarioChains(t *testing.T) {
	var o Options
	local := o.scenario(Local, nil)
	if local.Link != nil || len(local.Hops) != 0 || local.Encrypt {
		t.Errorf("Local = %+v, want no link, no hop, no tunnel", local)
	}
	for _, s := range []Scenario{LAN, WAN, WANC} {
		spec := o.scenario(s, nil)
		if spec.Link == nil || len(spec.Hops) != 1 || !spec.Encrypt {
			t.Fatalf("%s: want a tunnelled link and one hop, got %+v", s, spec)
		}
		if cached := spec.Hops[0].CacheConfig != nil; cached != (s == WANC) {
			t.Errorf("%s: client proxy cache = %v", s, cached)
		}
	}
	if o.scenario(LAN, nil).Link.Profile().RTT >= o.scenario(WAN, nil).Link.Profile().RTT {
		t.Error("LAN RTT should be below WAN RTT")
	}
}

func TestCloneTargets(t *testing.T) {
	same := sameImage(3)
	if len(same) != 3 || same[0] != same[2] {
		t.Errorf("sameImage = %v", same)
	}
	distinct := distinctImages(3)
	if distinct[0] == distinct[1] {
		t.Errorf("distinctImages = %v", distinct)
	}
}

// TestZeroFilterExperiment runs the cheapest full experiment end to
// end and checks its invariants.
func TestZeroFilterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	o := Options{Scale: 4096, WorkDir: t.TempDir()}
	tab, err := o.RunZeroFilter()
	if err != nil {
		t.Fatal(err)
	}
	reads, _ := tab.Value("this run", "client reads")
	filtered, _ := tab.Value("this run", "filtered")
	forwarded, _ := tab.Value("this run", "forwarded")
	if reads <= 0 {
		t.Fatal("no reads recorded")
	}
	if filtered+forwarded != reads {
		t.Errorf("filtered %v + forwarded %v != reads %v", filtered, forwarded, reads)
	}
	frac := filtered / reads
	if frac < 0.80 || frac > 0.98 {
		t.Errorf("filtered fraction = %.2f, want ~0.92", frac)
	}
}

// TestAppScenarioOrdering runs a miniature Figure-3-style comparison
// and asserts the paper's qualitative ordering: Local <= LAN < WAN,
// and WAN+C beats WAN overall.
func TestAppScenarioOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	o := Options{Scale: 8192, WorkDir: t.TempDir()}
	tab, err := o.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	local, _ := tab.Value("Local", "Total")
	wan, _ := tab.Value("WAN", "Total")
	wanc, _ := tab.Value("WAN+C", "Total")
	if !(local < wan) {
		t.Errorf("Local (%v) should beat WAN (%v)", local, wan)
	}
	if !(wanc < wan) {
		t.Errorf("WAN+C (%v) should beat WAN (%v)", wanc, wan)
	}
	// Phase 4 is compute-bound: scenarios should be within ~2x.
	p4l, _ := tab.Value("Local", "Phase 4")
	p4w, _ := tab.Value("WAN", "Phase 4")
	if p4w > 3*p4l {
		t.Errorf("phase 4 should be compute-bound: Local %v vs WAN %v", p4l, p4w)
	}
}

// TestCloningInvariants runs a reduced fig6-style pass and asserts the
// paper's qualitative cloning relations.
func TestCloningInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	o := Options{Scale: 4096}
	fs := memfs.New()
	if _, err := o.installImages(fs, 1); err != nil {
		t.Fatal(err)
	}
	c := stacktest.New(t, o.wanClone(fs))
	durs, err := o.sequentialClones(c.Session(), sameImage(3), "seq")
	if err != nil {
		t.Fatal(err)
	}
	if durs[1] >= durs[0] || durs[2] >= durs[0] {
		t.Errorf("warm clones (%v, %v) not faster than cold (%v)", durs[1], durs[2], durs[0])
	}
	if n := c.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1", n)
	}
}
