package harness

import (
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// This file implements the Section 7 ablation experiments: global
// reductions (7.1), false-sharing relief (7.4) and stale data (7.5).
// Each returns measurements and prints a table; the claims being tested
// are stated in the output.

// ReductionResult measures one reduction strategy.
type ReductionResult struct {
	Strategy string
	Cycles   int64
	Misses   int64
	Value    float64
}

// RunReduction compares three ways of summing n values across P nodes
// (Section 7.1): a lock around a shared accumulator, per-node partial sums
// combined serially, and an RSM reduction region whose reconciliation
// function does the combine.  A strategy whose sum is not n(n-1)/2 is an
// error.
func (s *Suite) RunReduction(n int) ([]ReductionResult, error) {
	cfg := s.Cfg
	want := float64(n) * float64(n-1) / 2

	var out []ReductionResult

	// Strategy 1: lock-protected shared accumulator.  Each node adds its
	// chunk under the lock in batches, as a pragmatic programmer would;
	// the lock transfer and the serialized critical sections dominate.
	{
		m := cstar.NewMachine(cfg.P, bs(cfg), costOf(cfg), cstar.Copying)
		total := cstar.NewVectorF64(m, "total", 1, core.Coherent(), memsys.SingleHome)
		m.Freeze()
		var lk tempest.SimLock
		m.Run(func(nd *tempest.Node) {
			lo, hi := (cstar.StaticSchedule{}).Range(nd.ID, m.P, 0, n)
			var local float64
			for i := lo; i < hi; i++ {
				local += float64(i)
				nd.Compute(1)
				// Batch into the shared total every 64 elements — the
				// naive per-element lock would be even worse.
				if (i-lo)%64 == 63 || i == hi-1 {
					lk.Acquire(nd)
					total.Set(nd, 0, total.Get(nd, 0)+local)
					lk.Release(nd)
					local = 0
				}
			}
			nd.Barrier()
		})
		out = append(out, ReductionResult{"lock", m.MaxClock(), m.TotalCounters().Misses, total.Peek(0)})
	}

	// Strategy 2: hand-written partial sums combined serially (what the
	// paper suggests a programmer rewrites the loop into), and strategy
	// 3: the RSM reduction, where the memory system combines private
	// copies at reconciliation.  Both use the same reducer code.
	for _, st := range []struct {
		name string
		sys  cstar.System
	}{{"partials", cstar.Copying}, {"rsm-reduction", cstar.LCMmcc}} {
		m := cstar.NewMachine(cfg.P, bs(cfg), costOf(cfg), st.sys)
		red := cstar.NewReduceF64(m, "total", st.sys)
		m.Freeze()
		m.Run(func(nd *tempest.Node) {
			lo, hi := (cstar.StaticSchedule{}).Range(nd.ID, m.P, 0, n)
			for i := lo; i < hi; i++ {
				red.Add(nd, float64(i))
				nd.Compute(1)
			}
			red.Reduce(nd)
		})
		var v float64
		m.Run(func(nd *tempest.Node) {
			if nd.ID == 0 {
				v = red.Value(nd)
			}
		})
		out = append(out, ReductionResult{st.name, m.MaxClock(), m.TotalCounters().Misses, v})
	}

	tb := stats.NewTable(
		fmt.Sprintf("Ablation 7.1: global sum of %d values, P=%d (all values must equal %.0f)", n, cfg.P, want),
		"cycles", "misses", "value")
	var errs []error
	for _, r := range out {
		tb.AddRow(r.Strategy, map[string]string{
			"cycles": stats.GroupInt(r.Cycles),
			"misses": stats.GroupInt(r.Misses),
			"value":  fmt.Sprintf("%.0f", r.Value),
		})
		if r.Value != want {
			errs = append(errs, fmt.Errorf("reduction %s: sum %.0f, want %.0f", r.Strategy, r.Value, want))
		}
	}
	fmt.Fprintln(s.Out, tb.String())
	s.note(
		"paper claim: the RSM reconciliation reduction avoids the lock bottleneck and",
		"needs no extra analysis or data structures, at cost comparable to hand-written partials.")
	return out, errors.Join(errs...)
}

// FalseSharingResult measures one system on the false-sharing kernel.
type FalseSharingResult struct {
	System cstar.System
	Cycles int64
	Misses int64
}

// RunFalseSharing measures Section 7.4: writers updating distinct words of
// the same cache blocks, with writes to each block interleaved across the
// writers over time: each phase consists of rounds in which every writer
// touches a different block, rotating every round, so consecutive writes
// to one block always come from different processors.  Under
// invalidation-based coherence every such write steals the block from its
// previous writer; under LCM the first write of the phase makes a private
// copy and all later writes hit it, with reconciliation merging the
// disjoint words.  A lost update — a writer's word not counting every
// one of its writes — is an error.
func (s *Suite) RunFalseSharing(blocks, steps int) ([]FalseSharingResult, error) {
	cfg := s.Cfg
	var out []FalseSharingResult
	var errs []error
	wordsPerBlock := int(bs(cfg) / 4)
	writers := min(cfg.P, wordsPerBlock, blocks)
	rounds := 4 * blocks // each writer revisits each block 4 times per phase
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		m := cstar.NewMachine(cfg.P, bs(cfg), costOf(cfg), sys)
		v := cstar.NewVectorI32(m, "shared", blocks*wordsPerBlock, cstar.DataPolicy(sys), memsys.Interleaved)
		m.Freeze()
		m.Run(func(nd *tempest.Node) {
			for st := 0; st < steps; st++ {
				for r := 0; r < rounds; r++ {
					if nd.ID < writers {
						b := (nd.ID + r) % blocks
						idx := b*wordsPerBlock + nd.ID
						v.Set(nd, idx, v.Get(nd, idx)+1)
					}
					nd.Barrier() // writes to a block interleave across writers
				}
				nd.ReconcileCopies()
			}
		})
		out = append(out, FalseSharingResult{sys, m.MaxClock(), m.TotalCounters().Misses})
		// Sanity: each writer hit each block rounds/blocks times per phase.
		cstar.DrainToHome(m)
		want := int32(steps * rounds / blocks)
		for w := 0; w < writers; w++ {
			if got := v.Peek(w); got != want {
				errs = append(errs, fmt.Errorf("false sharing %v: lost updates: word %d = %d, want %d", sys, w, got, want))
			}
		}
	}
	tb := stats.NewTable(
		fmt.Sprintf("Ablation 7.4: false sharing — %d writers, %d-byte blocks, %d blocks, %d phases x %d interleaved rounds",
			writers, bs(cfg), blocks, steps, rounds),
		"cycles", "misses")
	for _, r := range out {
		tb.AddRow(r.System.String(), map[string]string{
			"cycles": stats.GroupInt(r.Cycles),
			"misses": stats.GroupInt(r.Misses),
		})
	}
	fmt.Fprintln(s.Out, tb.String())
	s.note(
		"paper claim: with private copies and word-level merge, false sharing causes no",
		"coherence ping-pong; the invalidation protocol transfers each block per writer per step.")
	return out, errors.Join(errs...)
}

// StaleResult measures one staleness setting.
type StaleResult struct {
	StalePhases int
	Cycles      int64
	Misses      int64
	MaxLagSeen  int
}

// RunStaleData measures Section 7.5: one producer updates a field every
// phase; the other nodes read all of it every phase.  With StalePhases=k a
// consumer's copy survives up to k producer updates, trading staleness for
// eliminated re-fetches — the N-body "distant elements" optimization.
// A consumer that sees data older than its staleness bound allows is an
// error.
func (s *Suite) RunStaleData(words, phases int, staleness []int) ([]StaleResult, error) {
	cfg := s.Cfg
	var out []StaleResult
	for _, k := range staleness {
		m := cstar.NewMachine(cfg.P, bs(cfg), costOf(cfg), cstar.LCMmcc)
		pol := core.Stale(k)
		if k == 0 {
			pol = core.LooselyCoherent()
		}
		field := cstar.NewVectorF32(m, "field", words, pol, memsys.SingleHome)
		m.Freeze()
		maxLag := 0
		m.Run(func(nd *tempest.Node) {
			myMax := 0
			for ph := 0; ph < phases; ph++ {
				if nd.ID == 0 {
					for w := 0; w < words; w++ {
						field.Set(nd, w, float32(ph+1))
					}
				}
				nd.ReconcileCopies()
				if nd.ID != 0 {
					for w := 0; w < words; w++ {
						lag := (ph + 1) - int(field.Get(nd, w))
						if lag > myMax {
							myMax = lag
						}
					}
				}
			}
			nd.Barrier()
			if nd.ID == 1 {
				maxLag = myMax
			}
		})
		out = append(out, StaleResult{k, m.MaxClock(), m.TotalCounters().Misses, maxLag})
	}
	tb := stats.NewTable(
		fmt.Sprintf("Ablation 7.5: stale data — producer updates %d words over %d phases, %d consumers",
			words, phases, cfg.P-1),
		"cycles", "misses", "max_lag")
	var errs []error
	for _, r := range out {
		tb.AddRow(fmt.Sprintf("stale=%d", r.StalePhases), map[string]string{
			"cycles":  stats.GroupInt(r.Cycles),
			"misses":  stats.GroupInt(r.Misses),
			"max_lag": fmt.Sprintf("%d", r.MaxLagSeen),
		})
		if r.MaxLagSeen > r.StalePhases {
			errs = append(errs, fmt.Errorf("stale data stale=%d: lag %d exceeds the bound", r.StalePhases, r.MaxLagSeen))
		}
	}
	fmt.Fprintln(s.Out, tb.String())
	s.note(
		"paper claim: tolerating staleness eliminates refetches of repeatedly-updated data;",
		"misses fall as allowed staleness grows, bounded lag in exchange.")
	return out, errors.Join(errs...)
}

// RunAblations runs all Section 7 experiments at default sizes and
// returns the joined errors of their checks.
func (s *Suite) RunAblations() error {
	_, errRed := s.RunReduction(1 << 16)
	_, errFalse := s.RunFalseSharing(16, 50)
	_, errStale := s.RunStaleData(256, 40, []int{0, 1, 2, 4, 8})
	return errors.Join(errRed, errFalse, errStale)
}

// costOf resolves the suite's cost model (defaulting like workloads do).
func costOf(cfg workloads.Config) cost.Model {
	if cfg.CostModel != nil {
		return *cfg.CostModel
	}
	return cost.Default()
}

// bs resolves the suite's block size (defaulting like workloads do).
func bs(cfg workloads.Config) uint32 {
	if cfg.BlockSize == 0 {
		return 32
	}
	return cfg.BlockSize
}
