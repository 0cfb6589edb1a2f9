// Fault matrix: every workload under every memory system runs under
// every seeded fault plan, and recovery must be invisible and exactly
// accounted.  A recoverable row must complete with the answer
// bit-identical to the sequential oracle (Verify), leave the access
// stream untouched, replay bit-identically under the same (seed, plan),
// and account every injected fault one for one: one re-fetch per
// corrupted transfer, one retransmission per drop, one discard per
// duplicate, one hold per reorder, one restart per kill, one checkpoint
// per barrier under crash recovery, and one re-homing once the restart
// budget is spent.  The unrecoverable row must instead end in a
// structured per-node failure with a diagnostic dump inside a bounded
// wall-clock time.
package harness

import (
	"errors"
	"fmt"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/fault"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// FaultPlan is one named row of the fault matrix.  A plan that kills
// without KillRecover is unrecoverable: its row expects a structured
// *tempest.RunError matching fault.ErrKilled, not a completed run.
type FaultPlan struct {
	Name string
	Plan fault.Plan
}

// DefaultFaultPlans returns the standard matrix:
//
//   - light and heavy: rare and aggressive mixes of every recoverable
//     transfer, message and timing fault;
//   - kill-at-barrier, kill-mid-epoch and kill-rehome: a crash at the
//     epoch boundary, a crash mid-epoch, and repeated crashes past the
//     restart budget forcing degraded-mode re-homing;
//   - drop-1pct and dup-storm: sustained message loss, and a
//     duplicate/reorder storm;
//   - kill-abort: an unrecoverable crash.
func DefaultFaultPlans() []FaultPlan {
	return []FaultPlan{
		{Name: "light", Plan: fault.Plan{
			Seed:          0x1c3a05_0001,
			CorruptPerMil: 5,
			DropPerMil:    5,
			SpikePerMil:   3, SpikeCycles: 2000,
			StallPerMil: 2, StallCycles: 5000,
		}},
		{Name: "heavy", Plan: fault.Plan{
			Seed:          0x1c3a05_0002,
			CorruptPerMil: 60,
			DropPerMil:    60,
			SpikePerMil:   30, SpikeCycles: 4000,
			StallPerMil: 15, StallCycles: 10000,
		}},
		{Name: "kill-at-barrier", Plan: fault.Plan{
			Seed: 0x1c3a05_0101, KillNode: 1, KillAtBarrier: 2, KillRecover: true,
		}},
		{Name: "kill-mid-epoch", Plan: fault.Plan{
			Seed: 0x1c3a05_0102, KillNode: 1, KillAfter: 5, KillRecover: true,
		}},
		{Name: "kill-rehome", Plan: fault.Plan{
			Seed: 0x1c3a05_0103, KillNode: 1, KillAfter: 3, KillCount: 4,
			KillRecover: true, RestartBudget: 2,
		}},
		{Name: "drop-1pct", Plan: fault.Plan{
			Seed: 0x1c3a05_0104, DropPerMil: 10,
		}},
		{Name: "dup-storm", Plan: fault.Plan{
			Seed: 0x1c3a05_0105, DupPerMil: 120, ReorderPerMil: 40,
		}},
		{Name: "kill-abort", Plan: fault.Plan{
			Seed: 0x1c3a05_0003, KillNode: 1, KillAfter: 3,
		}},
	}
}

// abortBound is the wall-clock bound on an unrecoverable row: the
// machine must tear down with diagnostics, not hang.
const abortBound = 30 * time.Second

// faultCells are the fault matrix's workloads, one static cell each.
var faultCells = []CellSpec{
	{"Stencil", "static"},
	{"Adaptive", "static"},
	{"Threshold", ""},
	{"Unstructured", ""},
}

// faultRow is one printed row of the fault matrix: one plan and seed
// run against its (cell, system) fault-free baseline.  base, run and
// replay index the matrix's runs; run is -1 for a plan skipped at this
// P, and replay is -1 except on the first seed of a recoverable plan.
type faultRow struct {
	cell              CellSpec
	sys               cstar.System
	plan              FaultPlan
	seed              uint64
	base, run, replay int
}

// kills reports whether the plan kills a node; unrecoverable whether it
// does so without KillRecover, so its row expects an abort.
func kills(p fault.Plan) bool         { return p.KillAfter > 0 || p.KillAtBarrier > 0 }
func unrecoverable(p fault.Plan) bool { return kills(p) && !p.KillRecover }

// RunFaults runs the fault matrix — every workload x memory system x
// plan x seed at the suite's P, each run verified against the
// sequential oracle — printing one line per run and returning the
// joined failures (nil when every assertion held).  Each seed shifts
// every plan's own seed; an empty seeds list means the single seed 0.
// The first seed of each recoverable row is also replayed and must
// reproduce every observable bit for bit.  The fault-free baselines,
// every plan and seed, and the replays run as one batch through Exec.
func (s *Suite) RunFaults(plans []FaultPlan, seeds []uint64) error {
	cfg := s.Cfg
	cfg.Verify = true
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	var runs []Run
	add := func(c CellSpec, sys cstar.System, cfg workloads.Config) int {
		runs = append(runs, Run{Cell: c, System: sys, Cfg: cfg})
		return len(runs) - 1
	}
	var bases []int
	var rows []faultRow
	for _, c := range faultCells {
		for _, sys := range systems {
			base := add(c, sys, cfg)
			bases = append(bases, base)
			for _, p := range plans {
				if kills(p.Plan) && p.Plan.KillNode >= cfg.P {
					rows = append(rows, faultRow{c, sys, p, 0, base, -1, -1})
					continue
				}
				for i, seed := range seeds {
					fc := cfg
					plan := p.Plan
					plan.Seed += seed * 0x9e3779b97f4a7c15
					fc.Faults = &plan
					if unrecoverable(plan) {
						fc.Watchdog = 2 * time.Second
					}
					row := faultRow{c, sys, p, seed, base, add(c, sys, fc), -1}
					if i == 0 && !unrecoverable(plan) {
						row.replay = add(c, sys, fc)
					}
					rows = append(rows, row)
				}
			}
		}
	}
	fmt.Fprintf(s.Out, "fault matrix (P=%d, scale 1/%d, %d plans, %d seeds)...\n",
		cfg.P, s.Scale, len(plans), len(seeds))
	res, err := s.Exec(runs)
	if err != nil {
		return err
	}
	var failures []error
	for _, b := range bases {
		if err := res[b].Err; err != nil {
			failures = append(failures, fmt.Errorf("%s/%v: fault-free baseline failed: %w", runs[b].Cell.Workload, runs[b].System, err))
		}
	}
	for _, row := range rows {
		name := row.cell.Workload
		if res[row.base].Err != nil {
			continue // the baseline failure is reported above
		}
		if row.run < 0 {
			fmt.Fprintf(s.Out, "  %-12s %-8v %-15s skip (kill target beyond P=%d)\n", name, row.sys, row.plan.Name, cfg.P)
			continue
		}
		r := res[row.run]
		var detail string
		var err error
		if unrecoverable(row.plan.Plan) {
			// A failed run's counters are not collected, so the row
			// reports the structured failure instead.
			err = checkAbort(r, row.plan.Plan, r.Wall)
			detail = fmt.Sprintf("aborted[%v]", r.Err)
			var re *tempest.RunError
			if errors.As(r.Err, &re) && re.First() != nil {
				detail = fmt.Sprintf("aborted[%v]", re.First())
			}
		} else {
			err = checkFaults(res[row.base], r, row.plan.Plan, cfg.P)
			if err == nil && row.replay >= 0 {
				err = checkReplay(r, res[row.replay])
			}
			detail = fmt.Sprintf("injected[%s] restarts=%d rehomed=%d",
				r.Faults, r.C.Restarts, r.C.RehomedBlocks)
		}
		status := "ok"
		if err != nil {
			status = "FAIL: " + err.Error()
			failures = append(failures, fmt.Errorf("%s/%v/%s/seed%d: %w", name, row.sys, row.plan.Name, row.seed, err))
		}
		fmt.Fprintf(s.Out, "  %-12s %-8v %-15s seed=%d %s %s\n",
			name, row.sys, row.plan.Name, row.seed, detail, status)
	}
	return errors.Join(failures...)
}

// checkFaults asserts one recoverable run against its fault-free
// baseline: the run completed (with the oracle answer, checked in-run by
// Verify), the access stream is untouched by recovery, and every
// injected fault is accounted for exactly.
func checkFaults(base, res workloads.Result, plan fault.Plan, P int) error {
	if res.Err != nil {
		return fmt.Errorf("run failed under faults: %w", res.Err)
	}
	if P > 1 && res.Faults.Total() == 0 {
		return fmt.Errorf("plan injected no faults; row proves nothing")
	}
	wantCheckpoints := int64(0)
	if plan.KillRecover {
		// Every node checkpoints at every barrier epoch.
		wantCheckpoints = res.C.Barriers
	}
	checks := []struct {
		name      string
		want, got int64
	}{
		// Recovery must be invisible to the protocol's data movement:
		// the access stream matches the fault-free run event for event.
		{"Hits", base.C.Hits, res.C.Hits},
		{"Misses", base.C.Misses, res.C.Misses},
		{"Flushes", base.C.Flushes, res.C.Flushes},
		{"WordsFlushed", base.C.WordsFlushed, res.C.WordsFlushed},
		{"Marks", base.C.Marks, res.C.Marks},
		{"Barriers", base.C.Barriers, res.C.Barriers},
		// The machine's recovery counters match the injector's own
		// record of what it injected, one for one.
		{"CorruptedTransfers==Corruptions", res.Faults.Corruptions, res.C.CorruptedTransfers},
		{"Retransmits==Dropped", res.Faults.Dropped, res.C.Net.Retransmits},
		{"DupDelivered==Duplicated", res.Faults.Duplicated, res.C.Net.DupDelivered},
		{"ReorderHeld==Reordered", res.Faults.Reordered, res.C.Net.ReorderHeld},
		{"OccupancySpikes==Spikes", res.Faults.Spikes, res.C.OccupancySpikes},
		{"Stalls==Stalls", res.Faults.Stalls, res.C.Stalls},
		{"Restarts==Kills", res.Faults.Kills, res.C.Restarts},
		{"Checkpoints", wantCheckpoints, res.C.Checkpoints},
	}
	for _, c := range checks {
		if c.want != c.got {
			return fmt.Errorf("%s: want %d, got %d", c.name, c.want, c.got)
		}
	}
	// Degraded mode: killed past the restart budget, the node re-homes
	// exactly once; within budget, never.
	budget := int64(plan.RestartBudget)
	if budget <= 0 {
		budget = 4 // fault.Plan default
	}
	wantRehomings := int64(0)
	if res.Faults.Kills > budget && P > 1 {
		wantRehomings = 1
	}
	if res.C.Rehomings != wantRehomings {
		return fmt.Errorf("Rehomings: want %d (kills=%d budget=%d), got %d",
			wantRehomings, res.Faults.Kills, budget, res.C.Rehomings)
	}
	if wantRehomings == 1 && res.C.RehomedBlocks == 0 {
		return fmt.Errorf("re-homed with zero blocks migrated")
	}
	return nil
}

// checkAbort asserts an unrecoverable run terminated with a structured
// per-node error on the killed node, carrying a diagnostic dump, within
// the wall-clock bound.
func checkAbort(res workloads.Result, plan fault.Plan, elapsed time.Duration) error {
	if elapsed > abortBound {
		return fmt.Errorf("run took %v, bound %v", elapsed, abortBound)
	}
	if res.Err == nil {
		return fmt.Errorf("injected node failure but run succeeded")
	}
	if !errors.Is(res.Err, fault.ErrKilled) {
		return fmt.Errorf("error does not match fault.ErrKilled: %v", res.Err)
	}
	var re *tempest.RunError
	if !errors.As(res.Err, &re) {
		return fmt.Errorf("error is not a *tempest.RunError: %v", res.Err)
	}
	if first := re.First(); first == nil || first.Node != plan.KillNode {
		return fmt.Errorf("primary failure not on node %d: %v", plan.KillNode, res.Err)
	}
	if re.Diagnostics == "" {
		return fmt.Errorf("no diagnostic dump attached")
	}
	return nil
}

// checkReplay asserts two runs of the same (workload, P, seed, plan)
// row are bit-identical in every observable.
func checkReplay(a, b workloads.Result) error {
	if b.Err != nil {
		return fmt.Errorf("replay failed: %w", b.Err)
	}
	if a.Cycles != b.Cycles {
		return fmt.Errorf("replay diverged: cycles %d vs %d", a.Cycles, b.Cycles)
	}
	if a.C != b.C {
		return fmt.Errorf("replay diverged: counters %+v vs %+v", a.C, b.C)
	}
	if a.S != b.S {
		return fmt.Errorf("replay diverged: shared counters %+v vs %+v", a.S, b.S)
	}
	if a.Faults != b.Faults {
		return fmt.Errorf("replay diverged: fault tally %v vs %v", a.Faults, b.Faults)
	}
	return nil
}
