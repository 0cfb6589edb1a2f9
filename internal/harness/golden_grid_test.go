package harness

import (
	"io"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// Golden Table-1 grid: the protocol counters of every (workload, system)
// cell at the CI reference configuration (-scale 16 -p 8), pinned exactly.
//
// These numbers were captured from the flat-charge cost model that predates
// internal/net; the uniform network model must reproduce them bit-for-bit
// (the tentpole contract: `-net=uniform` is the pre-net simulator).  They
// are also the values the CI determinism job sees, so any drift here means
// either a deliberate protocol change (update the table and EXPERIMENTS.md)
// or an accounting regression.
//
// Every cell is pinned on every field, Copying included: the deterministic
// scheduler (internal/sched, on by default in workloads.Config) makes the
// interleaving — and with it Copying's invalidation-order-dependent fault
// counts — a pure function of (workload, P, seed).  The Copying P>1 values
// below were re-captured under schedule seed 0 when the scheduler landed;
// LCM cells were stream-determined all along and did not move.
type grid struct {
	misses, remote, local, upgrades, invalsSent    int64
	flushes, wordsFlushed, marks, barriers, copied int64
	cleanHome, cleanLocal, reconciles              int64
}

var goldenGrid = []struct {
	workload string
	sched    string
	sys      cstar.System
	want     grid
}{
	{"Stencil", "static", cstar.Copying, grid{1396, 1253, 143, 614, 254, 0, 0, 0, 24, 0, 0, 0, 0}},
	{"Stencil", "static", cstar.LCMscc, grid{13345, 11672, 1673, 11532, 1797, 11532, 8789, 11532, 48, 0, 1488, 0, 1488}},
	{"Stencil", "static", cstar.LCMmcc, grid{1858, 1625, 233, 1506, 1842, 11532, 8789, 11532, 48, 0, 1488, 1506, 1488}},
	{"Stencil", "dynamic", cstar.Copying, grid{3148, 2881, 267, 124, 1556, 0, 0, 0, 24, 0, 0, 0, 0}},
	{"Stencil", "dynamic", cstar.LCMscc, grid{13377, 11705, 1672, 11532, 1797, 11532, 8789, 11532, 48, 0, 1488, 0, 1488}},
	{"Stencil", "dynamic", cstar.LCMmcc, grid{1890, 1654, 236, 1506, 1842, 11532, 8789, 11532, 48, 0, 1488, 1506, 1488}},
	{"Adaptive", "static", cstar.Copying, grid{6245, 5629, 616, 1424, 1105, 0, 0, 0, 96, 18128, 0, 0, 0}},
	{"Adaptive", "static", cstar.LCMscc, grid{10229, 8959, 1270, 3668, 2432, 6602, 28505, 6602, 96, 0, 6602, 0, 5003}},
	{"Adaptive", "static", cstar.LCMmcc, grid{7737, 6779, 958, 3668, 6158, 6602, 28505, 6602, 96, 0, 6602, 6602, 5003}},
	{"Adaptive", "dynamic", cstar.Copying, grid{15758, 14674, 1084, 4296, 6282, 0, 0, 0, 96, 18128, 0, 0, 0}},
	{"Adaptive", "dynamic", cstar.LCMscc, grid{12271, 10735, 1536, 3668, 2632, 6602, 28505, 6602, 96, 0, 6602, 0, 5003}},
	{"Adaptive", "dynamic", cstar.LCMmcc, grid{10824, 9468, 1356, 3668, 6699, 6602, 28505, 6602, 96, 0, 6602, 6602, 5003}},
	{"Threshold", "", cstar.Copying, grid{460, 418, 42, 182, 142, 0, 0, 0, 24, 2535, 0, 0, 0}},
	{"Threshold", "", cstar.LCMscc, grid{416, 368, 48, 147, 150, 147, 147, 147, 48, 0, 101, 0, 101}},
	{"Threshold", "", cstar.LCMmcc, grid{271, 238, 33, 101, 152, 147, 147, 147, 48, 0, 101, 101, 101}},
	{"Unstructured", "", cstar.Copying, grid{2240, 2204, 36, 496, 2108, 0, 0, 0, 256, 0, 0, 0, 0}},
	{"Unstructured", "", cstar.LCMscc, grid{2970, 2199, 771, 512, 2426, 512, 511, 512, 512, 0, 512, 0, 511}},
	{"Unstructured", "", cstar.LCMmcc, grid{2714, 2199, 515, 512, 2682, 512, 511, 512, 512, 0, 512, 512, 511}},
}

func gridOf(r workloads.Result) grid {
	return grid{
		misses: r.C.Misses, remote: r.C.RemoteMisses, local: r.C.LocalFills,
		upgrades: r.C.Upgrades, invalsSent: r.C.InvalidationsSent,
		flushes: r.C.Flushes, wordsFlushed: r.C.WordsFlushed, marks: r.C.Marks,
		barriers: r.C.Barriers, copied: r.C.CopiedWords,
		cleanHome: r.S.CleanCopiesHome, cleanLocal: r.S.CleanCopiesLocal,
		reconciles: r.S.Reconciles,
	}
}

// TestGoldenGridCounters runs the full Table-1 grid at the CI reference
// configuration and checks every cell against the pinned counters.
func TestGoldenGridCounters(t *testing.T) {
	s := New(io.Discard)
	s.Cfg = workloads.Config{P: 8, Verify: true}
	s.Scale = 16
	rows, err := s.RunCells(GridCells())
	if err != nil {
		t.Fatal(err)
	}

	i := 0
	for _, row := range rows {
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
			if i >= len(goldenGrid) {
				t.Fatalf("more grid cells than golden entries")
			}
			g := goldenGrid[i]
			i++
			r, ok := row[sys]
			if !ok {
				t.Fatalf("missing cell %s/%s/%v", g.workload, g.sched, sys)
			}
			if r.Err != nil {
				t.Errorf("%s-%s/%v: run failed: %v", g.workload, g.sched, sys, r.Err)
				continue
			}
			if r.Workload != g.workload || r.Sched != g.sched || sys != g.sys {
				t.Fatalf("cell order drifted: got %s-%s/%v want %s-%s/%v",
					r.Workload, r.Sched, sys, g.workload, g.sched, g.sys)
			}
			if got, want := gridOf(r), g.want; got != want {
				t.Errorf("%s-%s/%v: counters drifted:\n got  %+v\n want %+v",
					g.workload, g.sched, sys, got, want)
			}
		}
	}
	if i != len(goldenGrid) {
		t.Fatalf("golden table has %d entries but grid produced %d cells", len(goldenGrid), i)
	}
}
