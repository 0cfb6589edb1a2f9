package harness

import (
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// This file implements parameter sweeps beyond the paper's headline
// experiments: block-size sensitivity (LCM-mcc's advantage comes from
// spatial reuse of clean copies, which grows with the block; LCM-scc is
// nearly insensitive), processor-count scaling (the paper argues
// reconciliation at the homes is unlikely to bottleneck because few copies
// of each block exist and flushes arrive spread out — the sweep checks
// that reconcile cost grows gracefully with P), cache capacity, and
// interconnect contention.  Every sweep but the commit sweep is a
// declaration that runSweep runs through Suite.Exec.

// sweep declares one parameter sweep: one cell run under each of a few
// systems at each point, printed as one table and a closing note.
type sweep struct {
	title   string
	cell    CellSpec
	systems []cstar.System
	points  []SweepRow // Label and Cfg of each point; runSweep fills Results
	columns []sweepColumn
	note    []string
}

// sweepColumn renders one table column from a row's results.
type sweepColumn struct {
	name  string
	value func(SweepRow) string
}

// SweepRow is one point of a sweep: its label, the configuration it ran
// at and each system's result.
type SweepRow struct {
	Label   string
	Cfg     workloads.Config
	Results map[cstar.System]workloads.Result
}

// runSweep runs a sweep through Exec and prints its table.  It returns
// the rows and the joined errors of the failed runs, each labelled with
// its cell, system and point.
func (s *Suite) runSweep(sw sweep) ([]SweepRow, error) {
	var runs []Run
	for _, pt := range sw.points {
		for _, sys := range sw.systems {
			runs = append(runs, Run{Cell: sw.cell, System: sys, Cfg: pt.Cfg})
		}
	}
	res, err := s.Exec(runs)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(sw.columns))
	for i, c := range sw.columns {
		names[i] = c.name
	}
	tb := stats.NewTable(sw.title, names...)
	var failed []error
	for i, results := range bySystem(res, sw.systems) {
		row := &sw.points[i]
		row.Results = results
		for _, sys := range sw.systems {
			if err := results[sys].Err; err != nil {
				failed = append(failed, fmt.Errorf("%s/%v/%s: %w", sw.cell.Label(), sys, row.Label, err))
			}
		}
		vals := make(map[string]string, len(sw.columns))
		for _, c := range sw.columns {
			vals[c.name] = c.value(*row)
		}
		tb.AddRow(row.Label, vals)
	}
	fmt.Fprintln(s.Out, tb.String())
	s.note(sw.note...)
	return sw.points, errors.Join(failed...)
}

// count is a column printing one system's integer observable.
func count(name string, sys cstar.System, v func(workloads.Result) int64) sweepColumn {
	return sweepColumn{name, func(r SweepRow) string { return stats.GroupInt(v(r.Results[sys])) }}
}

// kilo is a column printing one system's observable in thousands.
func kilo(name string, sys cstar.System, v func(workloads.Result) int64) sweepColumn {
	return sweepColumn{name, func(r SweepRow) string { return stats.Thousands(v(r.Results[sys])) + "k" }}
}

// ratio is a column printing how many times num's cycles are den's.
func ratio(name string, num, den cstar.System) sweepColumn {
	return sweepColumn{name, func(r SweepRow) string {
		return stats.Speedup(r.Results[num].Cycles, r.Results[den].Cycles) + "x"
	}}
}

func cycles(r workloads.Result) int64    { return r.Cycles }
func misses(r workloads.Result) int64    { return r.C.Misses }
func evictions(r workloads.Result) int64 { return r.C.Evictions }
func netMsgs(r workloads.Result) int64   { return r.C.Net.TotalMsgs() }
func netQueue(r workloads.Result) int64  { return r.C.Net.QueueCycles }

// sweepSubject names a sweep's cell and its problem size for the table
// title: "Stencil-dyn (64x64, 6 iters)".
func (s *Suite) sweepSubject(c CellSpec) string {
	switch c.Workload {
	case "Stencil":
		sp := s.StencilSpec(c.Sched)
		return fmt.Sprintf("Stencil-%s (%dx%d, %d iters)", schedAbbrev[c.Sched], sp.N, sp.N, sp.Iters)
	case "KV":
		sp := s.KVSpec(c.Sched)
		return fmt.Sprintf("%s (%d keys, %d shards, skew %.2f)", c.Label(), sp.Keys, sp.Shards, sp.Skew)
	}
	return c.Label()
}

var (
	stencilStatic  = CellSpec{"Stencil", "static"}
	stencilDynamic = CellSpec{"Stencil", "dynamic"}
	kvRead         = CellSpec{"KV", "read"}
)

// RunBlockSizeSweep runs Stencil-stat across block sizes for all three
// systems.
func (s *Suite) RunBlockSizeSweep(sizes []uint32) ([]SweepRow, error) {
	sw := sweep{
		title:   fmt.Sprintf("Sweep: %s vs block size", s.sweepSubject(stencilStatic)),
		cell:    stencilStatic,
		systems: []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc},
		columns: []sweepColumn{
			count("copying:cycles", cstar.Copying, cycles),
			count("scc:cycles", cstar.LCMscc, cycles),
			count("mcc:cycles", cstar.LCMmcc, cycles),
			kilo("scc:miss", cstar.LCMscc, misses),
			kilo("mcc:miss", cstar.LCMmcc, misses),
		},
		note: []string{
			"larger blocks amortize fetches for all systems; the scc/mcc gap tracks the",
			"spatial reuse a local clean copy preserves across flushed invocations.",
		},
	}
	for _, bsz := range sizes {
		cfg := s.Cfg
		cfg.BlockSize = bsz
		sw.points = append(sw.points, SweepRow{Label: fmt.Sprintf("%dB blocks", bsz), Cfg: cfg})
	}
	return s.runSweep(sw)
}

// RunProcessorSweep runs Stencil-dyn across machine sizes.
func (s *Suite) RunProcessorSweep(ps []int) ([]SweepRow, error) {
	sw := sweep{
		title:   fmt.Sprintf("Sweep: %s vs processors", s.sweepSubject(stencilDynamic)),
		cell:    stencilDynamic,
		systems: []cstar.System{cstar.Copying, cstar.LCMmcc},
		columns: []sweepColumn{
			count("copying:cycles", cstar.Copying, cycles),
			count("mcc:cycles", cstar.LCMmcc, cycles),
			ratio("mcc speedup over copying", cstar.Copying, cstar.LCMmcc),
		},
		note: []string{
			"both systems scale; LCM's reconciliation commits in parallel at the homes, so",
			"it does not become the serialization point the paper's Section 5.1 worries about.",
		},
	}
	for _, p := range ps {
		cfg := s.Cfg
		cfg.P = p
		sw.points = append(sw.points, SweepRow{Label: fmt.Sprintf("P=%d", p), Cfg: cfg})
	}
	return s.runSweep(sw)
}

// RunCacheSweep runs Stencil-stat with bounded per-node caches of the
// given capacities in blocks (0 = unbounded).  The paper notes that
// Stache's huge static-partition advantage depends on keeping whole chunk
// interiors resident: "On a machine with a limited cache ... the first
// version's [dynamic] performance is likely to be more typical."
// Shrinking the cache below the working set makes the baseline refetch its
// chunk every iteration, eroding exactly that advantage.
func (s *Suite) RunCacheSweep(lines []int) ([]SweepRow, error) {
	sw := sweep{
		title:   fmt.Sprintf("Sweep: %s vs per-node cache capacity", s.sweepSubject(stencilStatic)),
		cell:    stencilStatic,
		systems: []cstar.System{cstar.Copying, cstar.LCMmcc},
		columns: []sweepColumn{
			count("copying:cycles", cstar.Copying, cycles),
			count("mcc:cycles", cstar.LCMmcc, cycles),
			ratio("stache advantage", cstar.LCMmcc, cstar.Copying),
			count("copying:evict", cstar.Copying, evictions),
		},
		note: []string{
			"the baseline's static-partition advantage shrinks as the cache stops holding",
			"chunk interiors across iterations (paper Section 6.3's caveat).",
		},
	}
	for _, lns := range lines {
		cfg := s.Cfg
		cfg.CacheLines = lns
		label := "unbounded"
		if lns > 0 {
			label = fmt.Sprintf("%d blocks", lns)
		}
		sw.points = append(sw.points, SweepRow{Label: label, Cfg: cfg})
	}
	return s.runSweep(sw)
}

// RunNetworkSweep runs one cell over the fat-tree interconnect across
// machine sizes and link bandwidths (cycles per byte: higher = less
// bandwidth), for the Copying baseline and LCM-mcc.  This is the paper's
// central claim as a curve: LCM moves fewer and cheaper messages, so
// making the network a contended resource (more nodes, slower links)
// should widen its advantage, where the flat uniform model could only
// ever show a constant gap.
func (s *Suite) RunNetworkSweep(cell CellSpec, ps []int, cpbs []int64) ([]SweepRow, error) {
	sw := sweep{
		title:   fmt.Sprintf("Sweep: %s on the fat-tree interconnect", s.sweepSubject(cell)),
		cell:    cell,
		systems: []cstar.System{cstar.Copying, cstar.LCMmcc},
		columns: []sweepColumn{
			count("copying:cycles", cstar.Copying, cycles),
			count("mcc:cycles", cstar.LCMmcc, cycles),
			ratio("mcc advantage", cstar.Copying, cstar.LCMmcc),
			count("copying:msgs", cstar.Copying, netMsgs),
			count("mcc:msgs", cstar.LCMmcc, netMsgs),
			count("copying:queue", cstar.Copying, netQueue),
			count("mcc:queue", cstar.LCMmcc, netQueue),
		},
		note: []string{
			"with an explicit network, the baseline's larger message count turns into",
			"queueing: LCM's advantage widens as links slow down or the machine grows",
			"(the uniform model charged both systems the same flat per-message price).",
		},
	}
	if cell.Workload == "KV" {
		// Serving traffic stresses the network differently from the
		// paper's kernels: Zipf skew concentrates block ownership on hot
		// shards, and each reshard epoch moves whole shards between
		// owners in a burst.
		sw.note = []string{
			"serving traffic adds reshard bursts: every migration epoch moves whole",
			"shards to new owners at a barrier, and the Zipf-hot shards keep a few",
			"links busy while the rest idle — watch mcc:queue vs copying:queue.",
		}
	}
	for _, p := range ps {
		for _, cpb := range cpbs {
			cfg := s.Cfg
			cfg.P = p
			cfg.Net = &net.Config{Model: "fattree", CyclesPerByte: cpb}
			sw.points = append(sw.points, SweepRow{Label: fmt.Sprintf("P=%d cpb=%d", p, cpb), Cfg: cfg})
		}
	}
	return s.runSweep(sw)
}

// DefaultNetSweep runs the network sweeps at their default sizes:
// Stencil-dyn for steady neighbor exchange, then KV-read for bursty
// ownership migration.  It returns the joined errors of failed runs.
func (s *Suite) DefaultNetSweep() error {
	var errs []error
	for _, cell := range []CellSpec{stencilDynamic, kvRead} {
		_, err := s.RunNetworkSweep(cell, []int{8, 16, 32}, []int64{2, 8, 32})
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// CommitResult is one cell of the commit-strategy sweep.
type CommitResult struct {
	P      int
	Serial bool
	Cycles int64
}

// RunCommitSweep contrasts LCM's parallel per-home reconciliation commit
// with a serialized commit at one node, across machine sizes.  Section 5.1
// worries that "reconciliation occurs at the home location of a modified
// block ... [which] poses a potential bottleneck for systems with many
// processors" and then argues it is unlikely to matter; the sweep
// quantifies that argument.
func (s *Suite) RunCommitSweep(ps []int) []CommitResult {
	var out []CommitResult
	spec := s.StencilSpec("static")
	tb := stats.NewTable(fmt.Sprintf("Sweep: LCM-mcc %s commit strategy", s.sweepSubject(stencilStatic)),
		"parallel:cycles", "serial:cycles", "serial slowdown")
	for _, p := range ps {
		cfg := s.Cfg
		cfg.P = p
		par := runStencilWithCommitMode(spec, cfg, core.CommitHomeParallel)
		ser := runStencilWithCommitMode(spec, cfg, core.CommitSerial)
		out = append(out, CommitResult{p, false, par}, CommitResult{p, true, ser})
		tb.AddRow(fmt.Sprintf("P=%d", p), map[string]string{
			"parallel:cycles": stats.GroupInt(par),
			"serial:cycles":   stats.GroupInt(ser),
			"serial slowdown": stats.Speedup(ser, par) + "x",
		})
	}
	fmt.Fprintln(s.Out, tb.String())
	s.note(
		"even fully serialized, commit work is ~1% of a phase at realistic costs —",
		"confirming Section 5.1's argument that reconciliation is unlikely to bottleneck",
		"(few copies per block, flushes spread out); the slowdown appears, and grows",
		"with P, only when per-block commit work is inflated (see the harness tests).")
	return out
}

// runStencilWithCommitMode reimplements just enough of the stencil loop to
// test commit strategies (the workloads package has no commit-mode knob,
// since no real configuration would choose the serial mode) and returns
// the simulated cycles.
func runStencilWithCommitMode(spec workloads.StencilSpec, cfg workloads.Config, mode core.CommitMode) int64 {
	m := cstar.NewMachine(cfg.P, bs(cfg), costOf(cfg), cstar.LCMmcc)
	m.Protocol().(*core.LCM).SetCommitMode(mode)
	a := cstar.NewMatrixF32(m, "A", spec.N, spec.N, cstar.DataPolicy(cstar.LCMmcc), memsys.Interleaved)
	m.Freeze()
	for j := 0; j < spec.N; j++ {
		a.Poke(0, j, 100)
	}
	plan := cstar.Lower(cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, cstar.LCMmcc)
	inner := spec.N - 2
	total := inner * inner
	m.Run(func(n *tempest.Node) {
		for it := 0; it < spec.Iters; it++ {
			cstar.ForEach(n, cstar.StaticSchedule{}, plan, it, total, func(idx int) {
				i := 1 + idx/inner
				j := 1 + idx%inner
				v := (a.Get(n, i-1, j) + a.Get(n, i+1, j) + a.Get(n, i, j-1) + a.Get(n, i, j+1)) * 0.25
				a.Set(n, i, j, v)
				n.Compute(4)
			})
			cstar.EndParallel(n)
		}
	})
	return m.MaxClock()
}

// RunSweeps runs the extension sweeps at sizes suited to the suite scale
// and returns the joined errors of every failed run.
func (s *Suite) RunSweeps() error {
	_, errBlock := s.RunBlockSizeSweep([]uint32{8, 16, 32, 64, 128})
	_, errProc := s.RunProcessorSweep([]int{4, 8, 16, 32})
	// Working set per node at scale: 2 meshes / P plus boundary; sweep
	// around it.
	spec := s.StencilSpec("static")
	per := int(bs(s.Cfg) / 4)
	ws := 2 * spec.N * ((spec.N + per - 1) / per) / s.Cfg.P
	_, errCache := s.RunCacheSweep([]int{0, 2 * ws, ws, ws / 2, ws / 4})
	s.RunCommitSweep([]int{4, 8, 16, 32})
	return errors.Join(errBlock, errProc, errCache, s.DefaultNetSweep())
}
