package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

// gridSpec is a simulator workload: harness cells run in process under
// all three memory systems, every cell verified.
type gridSpec struct {
	name  string
	p     int
	net   string
	scale int
	cells []harness.CellSpec
	// traced are the cells the traced run replays through the driver:
	// the Stencil cells, which carry most of the workload's host time.
	traced []harness.CellSpec
}

// gridWorkloads: paper-grid is the paper's own experiment (Table 1,
// Figures 2-3) and stresses the scheduler and LCM handlers; wide-fattree
// runs at P=256 on the fat tree, where every per-node and per-sharer cost
// (dispatch scan, nodeset spill, routing, GC of per-node state) is large.
// Scales keep a pass to a few seconds so a run holds many passes.
var gridWorkloads = []gridSpec{
	{
		name: "paper-grid", p: 32, net: "uniform", scale: 8,
		cells:  harness.GridCells(),
		traced: []harness.CellSpec{{Workload: "Stencil", Sched: "static"}, {Workload: "Stencil", Sched: "dynamic"}},
	},
	{
		name: "wide-fattree", p: 256, net: "fattree", scale: 16,
		cells: []harness.CellSpec{
			{Workload: "Stencil", Sched: "dynamic"},
			{Workload: "Adaptive", Sched: "dynamic"},
			{Workload: "Unstructured"},
		},
		traced: []harness.CellSpec{{Workload: "Stencil", Sched: "dynamic"}},
	},
}

// systems is the harness's per-cell system order.
var systems = []cstar.System{cstar.LCMscc, cstar.LCMmcc, cstar.Copying}

func gridWorkload(name string) (gridSpec, bool) {
	for _, w := range gridWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return gridSpec{}, false
}

func (w gridSpec) suite(seed int64) *harness.Suite {
	s := harness.New(io.Discard)
	s.Cfg = workloads.Config{P: w.p, Verify: true, SchedSeed: uint64(seed)}
	if w.net != "uniform" {
		s.Cfg.Net = &net.Config{Model: w.net}
	}
	s.Scale = w.scale
	return s
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// gridDigests fingerprints one pass: the deterministic BENCH bytes as a
// whole and each (cell, system) record of them.
type gridDigests struct {
	File    string            `json:"file"`
	Records map[string]string `json:"records"`
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func passDigests(s *harness.Suite, rows []map[cstar.System]workloads.Result) (gridDigests, error) {
	b, err := harness.MarshalDeterministic(s.Cfg, s.Scale, rows)
	if err != nil {
		return gridDigests{}, err
	}
	var bf harness.BenchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return gridDigests{}, err
	}
	d := gridDigests{File: digest(b), Records: map[string]string{}}
	for _, r := range bf.Records {
		rb, err := json.Marshal(r)
		if err != nil {
			return gridDigests{}, err
		}
		d.Records[recordKey(r.Workload, r.Sched, r.System)] = digest(rb)
	}
	return d, nil
}

func recordKey(workload, sched, system string) string {
	if sched != "" {
		workload += "-" + sched
	}
	return workload + "/" + system
}

// runGrid measures passes over the workload's cells until the budget is
// spent.  wall_s and cpu_s sum each (cell, system) run's median wall and
// CPU time over the passes, which filters a slow pass run by run;
// jobs_per_s is runs per second of wall_s.
func runGrid(w gridSpec, seed int64, seconds int, trace bool, orc *oracle) (*result, error) {
	res := newResult()
	s := w.suite(seed)

	// Set-up is building, freezing and initialising the machines of the
	// workload's Stencil cells: the per-run construction cost that work
	// moved out of the run loop would land in.  It is timed as the CPU
	// time of the one thread doing it, which a few milliseconds of work
	// measure far more steadily than a wall clock on a shared host.
	var setups []float64
	runtime.LockOSThread()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := threadCPUTime()
		for _, c := range w.traced {
			for _, sys := range systems {
				if _, err := buildStencil(sys, s.StencilSpec(c.Sched), w.p, w.net, uint64(seed), false); err != nil {
					runtime.UnlockOSThread()
					return nil, err
				}
			}
		}
		setups = append(setups, (threadCPUTime() - t0).Seconds())
	}
	runtime.UnlockOSThread()
	res.metrics["setup_s"] = median(setups)

	ref, haveRef := orc.Grid[w.name][fmt.Sprint(seed)]
	if !haveRef {
		res.note("oracle: no committed digest for seed %d; checking every pass against the first (replay identity) and Verify", seed)
	}
	// Garbage is collected after every (cell, system) run, outside its
	// timing, so each run starts from a settled heap: a run's cost and the
	// peak resident set then do not depend on how much garbage the runs
	// before it left behind.
	cellWalls := map[string][]float64{}
	cellCPU := map[string][]float64{}
	var mark time.Duration
	var rt rtWindows
	var rtMark rtSample
	s.OnProgress = func(p harness.Progress) {
		name := cellMetric(w.name, p.Cell, p.System)
		cellCPU[name] = append(cellCPU[name], (cpuTime() - mark).Seconds())
		cellWalls[name] = append(cellWalls[name], p.Wall.Seconds())
		rt.add(rtMark, readRuntime())
		runtime.GC()
		rtMark = readRuntime()
		mark = cpuTime()
	}
	var walls []float64
	var first []map[cstar.System]workloads.Result
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		runtime.GC()
		rtMark = readRuntime()
		mark = cpuTime()
		t0 := time.Now()
		rows, err := s.RunCells(w.cells)
		if err != nil {
			return nil, err
		}
		passes++
		walls = append(walls, time.Since(t0).Seconds())
		res.attempted += len(rows) * len(systems)

		d, err := passDigests(s, rows)
		if err != nil {
			return nil, err
		}
		if !haveRef {
			ref, haveRef = d, true
		}
		checkPass(res, w, rows, d, ref)
		if first == nil {
			first = rows
		}
	}
	wall, cpu := 0.0, 0.0
	for name, v := range cellWalls {
		res.metrics[name] = median(v)
		wall += median(v)
		cpu += median(cellCPU[name])
	}
	res.metrics["wall_s"] = wall
	res.metrics["jobs_per_s"] = float64(len(cellWalls)) / wall
	res.metrics["cpu_s"] = cpu
	res.note("passes=%d, pass wall min/median/max %.3f/%.3f/%.3f s",
		passes, quantile(walls, 0), median(walls), quantile(walls, 1))
	if !trace {
		return res, nil
	}

	accesses := layerCounters(res, first)
	res.metrics["runtime.gc_cpu_share"] = rt.gcShare()
	res.metrics["runtime.alloc_bytes_per_access"] = rt.allocBytes / float64(accesses*int64(passes))
	res.metrics["runtime.sched_latency_p50_us"] = rt.schedP50us()
	if err := traceCells(res, w, s, seed, first); err != nil {
		return nil, err
	}
	for k, v := range layerDrivers() {
		res.metrics[k] = v
	}
	res.note("sched.handoff_ns_per_grant (traced, %.0f ns) vs sched.grant_ns.p32 (pure driver, %.0f ns): the gap bounds the node work between a grant and its next span event, which timing from outside the program cannot separate from handoff",
		res.metrics["sched.handoff_ns_per_grant"], res.metrics["sched.grant_ns.p32"])
	return res, nil
}

// checkPass counts each failed cell: one that errored (including a failed
// Verify) or whose record differs from the reference digest.
func checkPass(res *result, w gridSpec, rows []map[cstar.System]workloads.Result, d, ref gridDigests) {
	bad := 0
	for i, row := range rows {
		for _, sys := range systems {
			r := row[sys]
			key := recordKey(r.Workload, r.Sched, sys.String())
			switch {
			case r.Err != nil:
				res.fail("%s %s/%s: %v", w.name, w.cells[i].Label(), sys, r.Err)
				bad++
			case d.Records[key] != ref.Records[key]:
				res.fail("%s %s: record digest %s, want %s", w.name, key, d.Records[key], ref.Records[key])
				bad++
			}
		}
	}
	if bad == 0 && d.File != ref.File {
		res.fail("%s: BENCH digest %s, want %s", w.name, d.File, ref.File)
	}
}

// layerCounters fills the simulated per-layer counts from one pass and
// returns its tag-checked accesses.
func layerCounters(res *result, rows []map[cstar.System]workloads.Result) int64 {
	m := res.metrics
	var accesses, hits int64
	for _, row := range rows {
		for _, sys := range systems {
			r := row[sys]
			c := r.C
			accesses += c.Hits + c.Misses + c.Upgrades
			hits += c.Hits
			m["tempest.remote_misses"] += float64(c.RemoteMisses)
			m["tempest.local_fills"] += float64(c.LocalFills)
			m["tempest.barriers"] += float64(c.Barriers)
			if sys.IsLCM() {
				m["core.marks"] += float64(c.Marks)
				m["core.flushes"] += float64(c.Flushes)
				m["core.words_flushed"] += float64(c.WordsFlushed)
				m["core.clean_copies"] += float64(r.S.CleanCopiesHome + r.S.CleanCopiesLocal)
				m["core.reconciles"] += float64(r.S.Reconciles)
			} else {
				m["stache.upgrades"] += float64(c.Upgrades)
				m["stache.invalidations"] += float64(c.InvalidationsSent)
			}
			m["net.msgs"] += float64(c.Net.TotalMsgs())
			m["net.bytes"] += float64(c.Net.Bytes)
			m["net.queue_cycles"] += float64(c.Net.QueueCycles)
			m["net.max_link_busy"] = max(m["net.max_link_busy"], float64(r.Links.MaxBusy))
		}
	}
	m["tempest.accesses"] = float64(accesses)
	if accesses > 0 {
		m["tempest.hit_ratio"] = float64(hits) / float64(accesses)
	}
	return accesses
}

// traceReps is how many untraced/traced pairs each traced cell runs.
const traceReps = 3

// traceCells replays the workload's Stencil cells through the driver,
// untraced and then traced, traceReps times each, holds every run to the
// harness run's simulated counters, and turns the traced timelines into
// per-layer metrics.  trace.overhead compares per-cell median walls.
func traceCells(res *result, w gridSpec, s *harness.Suite, seed int64, rows []map[cstar.System]workloads.Result) error {
	want := map[string]cellCounters{}
	for _, row := range rows {
		for _, sys := range systems {
			r := row[sys]
			want[recordKey(r.Workload, r.Sched, sys.String())] = cellCounters{
				Cycles: r.Cycles, Misses: r.C.Misses, NetMsgs: r.C.Net.TotalMsgs(),
			}
		}
	}
	var (
		self, calls     [2][numSpans]int64 // [0] LCM cells, [1] copying cells
		handoff, grants int64
		tracedNS        int64
		kernelAccesses  int64
		tracedMed       float64 // sums of per-cell median walls
		untracedMed     float64
	)
	for _, c := range w.traced {
		spec := s.StencilSpec(c.Sched)
		for _, sys := range systems {
			key := recordKey(c.Workload, c.Sched, sys.String())
			k := 0
			if sys == cstar.Copying {
				k = 1
			}
			var walls0, walls1 []float64
			for rep := 0; rep < traceReps; rep++ {
				res.attempted++
				plain, err := buildStencil(sys, spec, w.p, w.net, uint64(seed), false)
				if err != nil {
					return err
				}
				r0, err0 := plain.run()
				sm, err := buildStencil(sys, spec, w.p, w.net, uint64(seed), true)
				if err != nil {
					return err
				}
				r1, err1 := sm.run()
				switch {
				case err0 != nil || err1 != nil:
					res.fail("trace %s: untraced err %v, traced err %v", key, err0, err1)
					continue
				case r0.sim != want[key] || r1.sim != want[key]:
					res.fail("trace %s: untraced %s, traced %s, workload %s", key, r0.sim, r1.sim, want[key])
					continue
				}
				for i := range self[k] {
					self[k][i] += sm.tr.self[i]
					calls[k][i] += sm.tr.calls[i]
				}
				handoff += sm.tr.handoff
				grants += int64(r1.grants)
				tracedNS += r1.wall.Nanoseconds()
				kernelAccesses += r1.ctr.Hits + r1.ctr.Misses + r1.ctr.Upgrades
				walls0 = append(walls0, r0.wall.Seconds())
				walls1 = append(walls1, r1.wall.Seconds())
				if rep == 0 {
					res.note("trace %s: %s grants=%d", key, r1.sim, r1.grants)
				}
			}
			tracedMed += median(walls1)
			untracedMed += median(walls0)
		}
	}
	if tracedNS == 0 {
		return nil
	}
	m := res.metrics
	share := func(v int64) float64 { return float64(v) / float64(tracedNS) }
	per := func(v, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	kernel := self[0][spanKernel] + self[1][spanKernel]
	netSelf := self[0][spanNet] + self[1][spanNet]
	m["sched.grants"] = float64(grants) / traceReps
	m["sched.handoff_share"] = share(handoff)
	m["sched.handoff_ns_per_grant"] = per(handoff, grants)
	m["tempest.kernel_share"] = share(kernel)
	m["tempest.ns_per_access"] = per(kernel, kernelAccesses)
	m["core.fault_ns"] = per(self[0][spanFault], calls[0][spanFault])
	m["core.flush_ns"] = per(self[0][spanFlush], calls[0][spanFlush])
	m["core.reconcile_share"] = share(self[0][spanReconcile])
	m["stache.fault_ns"] = per(self[1][spanFault], calls[1][spanFault])
	m["net.call_ns"] = per(netSelf, calls[0][spanNet]+calls[1][spanNet])
	m["net.share"] = share(netSelf)
	m["trace.overhead"] = tracedMed / untracedMed
	res.note("traced time: handoff %.1f%% kernel %.1f%% net %.1f%% | LCM fault %.1f%% mark %.1f%% flush %.1f%% reconcile %.1f%% | Stache fault %.1f%% sync %.1f%% | tracing overhead x%.2f",
		100*share(handoff), 100*share(kernel), 100*share(netSelf),
		100*share(self[0][spanFault]), 100*share(self[0][spanMark]), 100*share(self[0][spanFlush]), 100*share(self[0][spanReconcile]),
		100*share(self[1][spanFault]), 100*share(self[1][spanReconcile]+self[1][spanFlush]+self[1][spanMark]),
		m["trace.overhead"])
	return nil
}
