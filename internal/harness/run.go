package harness

import (
	"fmt"
	"strings"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// This file is the library face of the harness: grid cells are named
// values that callers (cmd/lcmbench, internal/serve) select, run and
// observe through a progress callback, instead of the harness owning the
// whole campaign and its output files.  The rendered tables still go to
// Suite.Out; the raw results come back to the caller.

// CellSpec names one grid cell: a workload plus, where the workload has
// one, a schedule knob.
type CellSpec struct {
	// Workload is "Stencil", "Adaptive", "Threshold", "Unstructured" or
	// "KV".
	Workload string
	// Sched is "static" or "dynamic" for Stencil and Adaptive, the
	// request mix ("read" or "write") for KV, and empty for the
	// workloads without a knob.
	Sched string
}

// Label renders the canonical cell name ("Stencil-static", "Threshold").
func (c CellSpec) Label() string {
	if c.Sched == "" {
		return c.Workload
	}
	return c.Workload + "-" + c.Sched
}

// GridCells returns the six Table-1 / Figure-2 / Figure-3 cells in their
// canonical (paper) order.
func GridCells() []CellSpec {
	return []CellSpec{
		{"Stencil", "static"},
		{"Stencil", "dynamic"},
		{"Adaptive", "static"},
		{"Adaptive", "dynamic"},
		{"Threshold", ""},
		{"Unstructured", ""},
	}
}

// KVCells returns the serving-traffic cells: the sharded KV workload
// under its read-mostly and write-heavy mixes.  They are selectable by
// name (-cells, lcmd Cells) and deliberately not part of GridCells, so
// the Table-1 campaigns — and the committed BENCH_seed.json trajectory
// they are gated against — keep their historical shape.
func KVCells() []CellSpec {
	return []CellSpec{
		{"KV", "read"},
		{"KV", "write"},
	}
}

// AllCells returns every selectable cell: the Table-1 grid followed by
// the serving-traffic cells.
func AllCells() []CellSpec {
	return append(GridCells(), KVCells()...)
}

// UnknownCellError reports a cell name that resolves to no selectable
// cell, carrying the offending name and the known cell names so callers
// can render a structured diagnostic (and tests can assert on more than
// message text).
type UnknownCellError struct {
	// Name is the unresolvable input, as given.
	Name string
	// Known lists every valid cell label in canonical order.
	Known []string
}

func (e *UnknownCellError) Error() string {
	return fmt.Sprintf("unknown grid cell %q (want one of %s)", e.Name, strings.Join(e.Known, ", "))
}

// schedAbbrev is how the paper's tables abbreviate a schedule
// ("Stencil-stat").
var schedAbbrev = map[string]string{"static": "stat", "dynamic": "dyn"}

// ParseCell resolves a cell name to its spec.  Both the full schedule
// names ("Stencil-static") and the table abbreviations ("Stencil-stat")
// are accepted; matching is case-insensitive.  An unresolvable name —
// including an empty segment from a stray comma — is an *UnknownCellError.
func ParseCell(name string) (CellSpec, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, c := range AllCells() {
		if strings.ToLower(c.Label()) == want {
			return c, nil
		}
		if abbrev := schedAbbrev[c.Sched]; abbrev != "" && strings.ToLower(c.Workload+"-"+abbrev) == want {
			return c, nil
		}
	}
	return CellSpec{}, &UnknownCellError{Name: name, Known: CellNames()}
}

// CellNames returns the labels of every selectable cell in canonical
// order.
func CellNames() []string {
	var names []string
	for _, c := range AllCells() {
		names = append(names, c.Label())
	}
	return names
}

// Progress is one cell-completion notification delivered to
// Suite.OnProgress: the (cell, system) run that just finished and the
// campaign position.  SimCycles is the run's simulated execution time;
// Wall its host cost.  Err reports a failed run (the campaign continues;
// the caller decides whether failures are fatal).
type Progress struct {
	Cell   string
	System string
	Done   int
	Total  int

	SimCycles int64
	SimMisses int64
	Wall      time.Duration
	Err       error
}

// Run is one experiment: one cell under one memory system on one machine
// configuration.  Every campaign — the grid, the sweeps, the fault
// matrix — is a list of Runs executed by Suite.Exec.
type Run struct {
	Cell   CellSpec
	System cstar.System
	Cfg    workloads.Config
}

// Exec runs the runs in order and returns their results in the same
// order.  Every cell is validated before anything runs; an unknown cell
// or schedule is an error.  Each result is stamped with the host
// wall-clock duration of its workload call alone, and Suite.OnProgress
// (when set) is invoked after every run with Done/Total counted over the
// batch.  A failed run is reported in its Result.Err, not as an error.
func (s *Suite) Exec(runs []Run) ([]workloads.Result, error) {
	for _, r := range runs {
		if err := r.Cell.validate(); err != nil {
			return nil, err
		}
	}
	out := make([]workloads.Result, len(runs))
	for i, run := range runs {
		c, sys, cfg := run.Cell, run.System, run.Cfg
		t0 := time.Now()
		var r workloads.Result
		switch c.Workload {
		case "Stencil":
			r = workloads.RunStencil(sys, s.StencilSpec(c.Sched), cfg)
		case "Adaptive":
			r = workloads.RunAdaptive(sys, s.AdaptiveSpec(c.Sched), cfg)
		case "Threshold":
			r = workloads.RunThreshold(sys, s.ThresholdSpec(), cfg)
		case "Unstructured":
			r = workloads.RunUnstructured(sys, s.UnstructuredSpec(), cfg)
		case "KV":
			r = workloads.RunKV(sys, s.KVSpec(c.Sched), cfg)
		}
		r.Wall = time.Since(t0)
		out[i] = r
		if s.OnProgress != nil {
			s.OnProgress(Progress{
				Cell: c.Label(), System: sys.String(), Done: i + 1, Total: len(runs),
				SimCycles: r.Cycles, SimMisses: r.C.Misses, Wall: r.Wall, Err: r.Err,
			})
		}
	}
	return out, nil
}

// validate reports a cell that names no workload, or a schedule its
// workload does not have.
func (c CellSpec) validate() error {
	switch c.Workload {
	case "Stencil", "Adaptive":
		if c.Sched != "static" && c.Sched != "dynamic" {
			return fmt.Errorf("cell %s: %s needs a static or dynamic schedule", c.Label(), c.Workload)
		}
	case "Threshold", "Unstructured":
		if c.Sched != "" {
			return fmt.Errorf("cell %s: %s has no schedule variants", c.Label(), c.Workload)
		}
	case "KV":
		if c.Sched != "read" && c.Sched != "write" {
			return fmt.Errorf("cell %s: KV needs a read or write mix", c.Label())
		}
	default:
		return fmt.Errorf("unknown workload %q in cell %s", c.Workload, c.Label())
	}
	return nil
}

// bySystem regroups results run as consecutive groups of len(systems),
// one per group, into system-keyed maps.
func bySystem(res []workloads.Result, systems []cstar.System) []map[cstar.System]workloads.Result {
	rows := make([]map[cstar.System]workloads.Result, len(res)/len(systems))
	for i := range rows {
		rows[i] = make(map[cstar.System]workloads.Result, len(systems))
		for j, sys := range systems {
			rows[i][sys] = res[i*len(systems)+j]
		}
	}
	return rows
}

// RunCells runs the given grid cells under all three memory systems at
// the suite's configuration, invoking Suite.OnProgress (when set) after
// every completed (cell, system) run.  The result slice is ordered like
// cells; each element maps system to its measurements.  An unknown cell
// is an error before anything runs.
func (s *Suite) RunCells(cells []CellSpec) ([]map[cstar.System]workloads.Result, error) {
	runs := make([]Run, 0, len(cells)*len(systems))
	for _, c := range cells {
		for _, sys := range systems {
			runs = append(runs, Run{Cell: c, System: sys, Cfg: s.Cfg})
		}
	}
	res, err := s.Exec(runs)
	if err != nil {
		return nil, err
	}
	return bySystem(res, systems), nil
}
