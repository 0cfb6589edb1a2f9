package harness

import (
	"bytes"
	"strings"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// smallSuite runs the whole campaign at an aggressively reduced scale so
// the test stays fast while still spanning all systems and workloads.
func smallSuite(buf *bytes.Buffer) *Suite {
	s := New(buf)
	s.Cfg = workloads.Config{P: 8, Verify: true}
	s.Scale = 16
	return s
}

func TestRunPaperEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	rows := s.RunPaper()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, row := range rows {
		for sys, r := range row {
			if r.Err != nil {
				t.Fatalf("%s/%v failed verification: %v", r.Label(), sys, r.Err)
			}
			if r.Cycles <= 0 {
				t.Fatalf("%s/%v: zero cycles", r.Label(), sys)
			}
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 2", "Figure 3",
		"Stencil-stat", "Stencil-dyn", "Adaptive-stat", "Adaptive-dyn",
		"Threshold", "Unstructured", "miss:scc", "clean:mcc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestPaperShapeClaims(t *testing.T) {
	// The qualitative claims of Figures 2-3 must hold even at reduced
	// scale (the quantitative factors are checked at paper scale in
	// EXPERIMENTS.md).
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Scale = 8
	rows, err := s.RunCells(GridCells())
	if err != nil {
		t.Fatal(err)
	}
	stencilStat, stencilDyn := rows[0], rows[1]
	adaptiveDyn := rows[3]
	threshold, unstructured := rows[4], rows[5]

	// Stencil-stat: Stache wins big.
	if !(stencilStat[cstar.Copying].Cycles < stencilStat[cstar.LCMmcc].Cycles) {
		t.Error("Stencil-stat: Stache should beat LCM-mcc")
	}
	// LCM-scc slower than LCM-mcc with far more misses.
	if !(stencilStat[cstar.LCMscc].Cycles > stencilStat[cstar.LCMmcc].Cycles) {
		t.Error("Stencil-stat: scc should be slower than mcc")
	}
	if !(stencilStat[cstar.LCMscc].C.Misses > 3*stencilStat[cstar.LCMmcc].C.Misses) {
		t.Errorf("Stencil-stat: scc misses %d should be several times mcc's %d",
			stencilStat[cstar.LCMscc].C.Misses, stencilStat[cstar.LCMmcc].C.Misses)
	}
	// Stencil-dyn: the baseline's advantage must collapse; its misses
	// roughly double LCM-mcc's.
	if !(stencilDyn[cstar.Copying].C.Misses > stencilDyn[cstar.LCMmcc].C.Misses) {
		t.Error("Stencil-dyn: Copying should miss more than LCM-mcc")
	}
	// Adaptive-dyn, Threshold: LCM-mcc faster than the baseline.
	if !(adaptiveDyn[cstar.LCMmcc].Cycles < adaptiveDyn[cstar.Copying].Cycles) {
		t.Error("Adaptive-dyn: LCM-mcc should beat explicit copying")
	}
	if !(threshold[cstar.LCMmcc].Cycles < threshold[cstar.Copying].Cycles) {
		t.Error("Threshold: LCM-mcc should beat explicit copying")
	}
	if !(threshold[cstar.LCMmcc].Cycles < threshold[cstar.LCMscc].Cycles) {
		t.Error("Threshold: mcc should beat scc")
	}
	// Unstructured: LCM at least competitive.
	if float64(unstructured[cstar.LCMmcc].Cycles) > 1.1*float64(unstructured[cstar.Copying].Cycles) {
		t.Error("Unstructured: LCM-mcc should not lose to the baseline")
	}
}

func TestReductionAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res, err := s.RunReduction(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatal("want 3 strategies")
	}
	want := res[0].Value
	for _, r := range res {
		if r.Value != want {
			t.Fatalf("strategy %s result %v != %v", r.Strategy, r.Value, want)
		}
	}
	// The lock must be the bottleneck; the RSM reduction competitive
	// with hand-written partials.
	lock, partials, rsm := res[0], res[1], res[2]
	if !(lock.Cycles > partials.Cycles && lock.Cycles > rsm.Cycles) {
		t.Errorf("lock (%d) should be slowest (partials %d, rsm %d)",
			lock.Cycles, partials.Cycles, rsm.Cycles)
	}
	if float64(rsm.Cycles) > 1.5*float64(partials.Cycles) {
		t.Errorf("rsm reduction (%d) should be comparable to partials (%d)", rsm.Cycles, partials.Cycles)
	}
}

func TestFalseSharingAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res, err := s.RunFalseSharing(4, 20)
	if err != nil {
		t.Fatalf("false-sharing kernel lost updates: %v", err)
	}
	var stache, mcc FalseSharingResult
	for _, r := range res {
		switch r.System {
		case cstar.Copying:
			stache = r
		case cstar.LCMmcc:
			mcc = r
		}
	}
	// Invalidation coherence must transfer blocks per writer per step;
	// LCM's private copies avoid the write-steal traffic.
	if !(stache.Misses > 0 && mcc.Misses > 0) {
		t.Fatal("no traffic measured")
	}
	if !(mcc.Cycles < stache.Cycles) {
		t.Errorf("LCM-mcc (%d cycles) should beat the invalidation protocol (%d) under false sharing",
			mcc.Cycles, stache.Cycles)
	}
}

func TestStaleDataAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res, err := s.RunStaleData(64, 12, []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatal("want 3 settings")
	}
	for i := 1; i < len(res); i++ {
		if !(res[i].Misses < res[i-1].Misses) {
			t.Errorf("misses should fall with staleness: %+v", res)
		}
		if res[i].MaxLagSeen > res[i].StalePhases {
			t.Errorf("staleness bound violated: lag %d > allowed %d",
				res[i].MaxLagSeen, res[i].StalePhases)
		}
	}
	if res[0].MaxLagSeen != 0 {
		t.Errorf("stale=0 must be fresh, lag %d", res[0].MaxLagSeen)
	}
}

func TestSpecScaling(t *testing.T) {
	s := New(&bytes.Buffer{})
	s.Scale = 4
	if sp := s.StencilSpec("static"); sp.N != 256 || sp.Iters != 12 {
		t.Fatalf("scaled stencil %+v", sp)
	}
	s.Scale = 1
	if sp := s.StencilSpec("dynamic"); sp.N != 1024 || sp.Iters != 50 || sp.Sched != "dynamic" {
		t.Fatalf("paper stencil %+v", sp)
	}
	if sp := s.UnstructuredSpec(); sp.Nodes != 256 || sp.Edges != 1024 || sp.Iters != 512 {
		t.Fatalf("paper unstructured %+v", sp)
	}
	s.Scale = 1000
	if sp := s.StencilSpec("static"); sp.N < 16 || sp.Iters < 3 {
		t.Fatalf("scale floor %+v", sp)
	}
}

func TestBlockSizeSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	rows, err := s.RunBlockSizeSweep([]uint32{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Larger blocks must reduce LCM-mcc misses (spatial amortization).
	var miss []int64
	for i, bsz := range []uint32{16, 32, 64} {
		if rows[i].Cfg.BlockSize != bsz || len(rows[i].Results) != 3 {
			t.Fatalf("row %d = %s at %dB with %d systems, want %dB with 3", i, rows[i].Label, rows[i].Cfg.BlockSize, len(rows[i].Results), bsz)
		}
		miss = append(miss, rows[i].Results[cstar.LCMmcc].C.Misses)
	}
	if !(miss[0] > miss[1] && miss[1] > miss[2]) {
		t.Fatalf("mcc misses not monotone in block size: %v", miss)
	}
	if !strings.Contains(buf.String(), "block size") {
		t.Fatal("missing sweep table")
	}
}

func TestProcessorSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	rows, err := s.RunProcessorSweep([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// More processors must shorten the run for both systems.
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMmcc} {
		var cy []int64
		for i, p := range []int{2, 4, 8} {
			r, ok := rows[i].Results[sys]
			if rows[i].Cfg.P != p || !ok {
				t.Fatalf("row %d = %s, want P=%d with %v", i, rows[i].Label, p, sys)
			}
			cy = append(cy, r.Cycles)
		}
		if !(cy[0] > cy[1] && cy[1] > cy[2]) {
			t.Fatalf("%v does not scale: %v", sys, cy)
		}
	}
}

// TestCacheSweep checks the Section 6.3 caveat's mechanism: with an
// unbounded cache the baseline never evicts, and shrinking the cache
// below the per-node working set makes it evict ever more (at scale 64,
// P=8 the copying evictions read 0/37/222/315/396).
func TestCacheSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Scale = 64
	lines := []int{0, 16, 8, 4, 2}
	rows, err := s.RunCacheSweep(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(lines) {
		t.Fatalf("rows = %d, want %d", len(rows), len(lines))
	}
	var evict []int64
	for i, row := range rows {
		if row.Cfg.CacheLines != lines[i] {
			t.Fatalf("row %d = %s, want %d cache lines", i, row.Label, lines[i])
		}
		evict = append(evict, row.Results[cstar.Copying].C.Evictions)
	}
	if evict[0] != 0 {
		t.Errorf("unbounded cache evicted %d blocks", evict[0])
	}
	for i := 1; i < len(evict); i++ {
		if !(evict[i] > evict[i-1]) {
			t.Errorf("copying evictions do not rise as the cache shrinks: %v", evict)
		}
	}
	if !strings.Contains(buf.String(), "cache capacity") || !strings.Contains(buf.String(), "unbounded") {
		t.Fatalf("missing sweep table:\n%s", buf.String())
	}
}

// A sweep whose runs fail still prints its table but returns every
// failure, labelled with cell, system and point: 512-byte blocks exceed
// LCM's element-tracking limit, so the LCM-mcc runs fail.
func TestSweepsReportFailedRuns(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Scale = 64
	s.Cfg.BlockSize = 512
	_, err := s.RunNetworkSweep(CellSpec{"Stencil", "dynamic"}, []int{4}, []int64{2, 8})
	if err == nil {
		t.Fatalf("network sweep at 512-byte blocks returned no error:\n%s", buf.String())
	}
	for _, want := range []string{
		"Stencil-dynamic/lcm-mcc/P=4 cpb=2: ", "Stencil-dynamic/lcm-mcc/P=4 cpb=8: ",
		"block size 512 exceeds 256 bytes",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if !strings.Contains(buf.String(), "P=4 cpb=8") {
		t.Errorf("failed sweep printed no table:\n%s", buf.String())
	}
	if _, err := s.RunProcessorSweep([]int{4}); err == nil || !strings.Contains(err.Error(), "block size 512") {
		t.Errorf("processor sweep at 512-byte blocks: err = %v, want the config error", err)
	}
}

func TestCommitSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	// Amplify per-block commit work so the strategy difference is well
	// above the compute floor at test scale.
	cm := cost.Default()
	cm.InvalidatePerCopy = 20000
	cm.LocalFill = 5000
	s.Cfg.CostModel = &cm
	res := s.RunCommitSweep([]int{2, 8})
	cy := func(p int, serial bool) int64 {
		for _, r := range res {
			if r.P == p && r.Serial == serial {
				return r.Cycles
			}
		}
		return -1
	}
	// Serializing the commit must hurt, and hurt more at larger P.
	if !(cy(8, true) > cy(8, false)) {
		t.Fatalf("serial commit (%d) not slower than parallel (%d) at P=8",
			cy(8, true), cy(8, false))
	}
	slow2 := float64(cy(2, true)) / float64(cy(2, false))
	slow8 := float64(cy(8, true)) / float64(cy(8, false))
	if slow8 <= slow2 {
		t.Fatalf("bottleneck should grow with P: slowdown %0.2f at P=2, %0.2f at P=8", slow2, slow8)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Cfg.Verify = false
	rows, err := s.RunCells(GridCells())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+6*3 {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+6*3)
	}
	if !strings.HasPrefix(lines[0], "workload,system,sched,cycles") {
		t.Fatalf("header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged row %q", l)
		}
	}
}

// Exec validates the whole batch before running any of it, then reports
// progress once per run with Done/Total counted over the batch.
func TestExecValidatesThenReportsProgress(t *testing.T) {
	s := New(&bytes.Buffer{})
	s.Cfg = workloads.Config{P: 2}
	s.Scale = 64
	var seen []Progress
	s.OnProgress = func(p Progress) { seen = append(seen, p) }
	good := Run{Cell: CellSpec{"Threshold", ""}, System: cstar.LCMmcc, Cfg: s.Cfg}
	for _, bad := range []CellSpec{{"Stencil", "diagonal"}, {"Threshold", "static"}, {"KV", "mixed"}, {"Mandelbrot", ""}} {
		if _, err := s.Exec([]Run{good, {Cell: bad, System: cstar.Copying, Cfg: s.Cfg}}); err == nil {
			t.Errorf("Exec accepted cell %s", bad.Label())
		}
	}
	if len(seen) != 0 {
		t.Fatalf("Exec ran %d runs of a batch holding an invalid cell", len(seen))
	}
	res, err := s.Exec([]Run{good, {Cell: CellSpec{"Stencil", "static"}, System: cstar.Copying, Cfg: s.Cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Workload != "Threshold" || res[1].System != cstar.Copying {
		t.Fatalf("results out of order: %+v", res)
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != 2 || p.Wall != res[i].Wall || p.Wall <= 0 || p.SimCycles != res[i].Cycles {
			t.Errorf("progress %d = %+v, want done %d/2 with the run's wall time and cycles", i, p, i+1)
		}
	}
	if len(seen) != 2 || seen[0].Cell != "Threshold" || seen[1].Cell != "Stencil-static" || seen[1].System != "copying" {
		t.Errorf("progress = %+v, want Threshold then Stencil-static/copying", seen)
	}
}
