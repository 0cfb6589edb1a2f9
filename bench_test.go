package lcm_test

// One testing.B benchmark per table and figure of the paper, plus the
// Section 7 ablations.  Each benchmark runs the corresponding workload on
// the simulated machine and reports, besides Go's wall-clock numbers, the
// simulated metrics the paper's artifact reports: virtual cycles
// ("simcycles"), cache misses ("simmisses") and clean copies
// ("cleancopies").
//
// Benchmarks default to 1/8 of the paper's problem sizes so the whole
// suite completes in minutes; run cmd/lcmbench for full-scale numbers
// (EXPERIMENTS.md records a full-scale run).

import (
	"fmt"
	"io"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/nodeset"
	"lcm/internal/workloads"
)

// benchScale divides paper problem sizes for the testing.B harness.
const benchScale = 8

func benchSuite() *harness.Suite {
	s := harness.New(io.Discard)
	s.Cfg = workloads.Config{P: 32}
	s.Scale = benchScale
	return s
}

func report(b *testing.B, r workloads.Result) {
	b.Helper()
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(float64(r.C.Misses), "simmisses")
	b.ReportMetric(float64(r.CleanCopies()), "cleancopies")
}

// benchWorkload runs one (workload, system) cell b.N times.
func benchWorkload(b *testing.B, run func() workloads.Result) {
	b.Helper()
	var last workloads.Result
	for i := 0; i < b.N; i++ {
		last = run()
	}
	report(b, last)
}

func forSystems(b *testing.B, run func(sys cstar.System) workloads.Result) {
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		b.Run(sys.String(), func(b *testing.B) {
			benchWorkload(b, func() workloads.Result { return run(sys) })
		})
	}
}

// BenchmarkTable1StencilStat regenerates the Stencil-stat row of Table 1
// and the static half of Figure 2.
func BenchmarkTable1StencilStat(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunStencil(sys, s.StencilSpec("static"), s.Cfg)
	})
}

// BenchmarkTable1StencilDyn regenerates the Stencil-dyn row of Table 1 and
// the dynamic half of Figure 2.
func BenchmarkTable1StencilDyn(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunStencil(sys, s.StencilSpec("dynamic"), s.Cfg)
	})
}

// BenchmarkTable1AdaptiveStat regenerates the Adaptive row of Table 1 /
// Figure 3 with static partitioning.
func BenchmarkTable1AdaptiveStat(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunAdaptive(sys, s.AdaptiveSpec("static"), s.Cfg)
	})
}

// BenchmarkTable1AdaptiveDyn regenerates the Adaptive row of Table 1 /
// Figure 3 with dynamic partitioning (the paper's headline 1.9x case).
func BenchmarkTable1AdaptiveDyn(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunAdaptive(sys, s.AdaptiveSpec("dynamic"), s.Cfg)
	})
}

// BenchmarkTable1Threshold regenerates the Threshold row of Table 1 /
// Figure 3.
func BenchmarkTable1Threshold(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunThreshold(sys, s.ThresholdSpec(), s.Cfg)
	})
}

// BenchmarkTable1Unstructured regenerates the Unstructured row of Table 1
// / Figure 3.
func BenchmarkTable1Unstructured(b *testing.B) {
	s := benchSuite()
	forSystems(b, func(sys cstar.System) workloads.Result {
		return workloads.RunUnstructured(sys, s.UnstructuredSpec(), s.Cfg)
	})
}

// BenchmarkAblationReduction regenerates the Section 7.1 comparison of
// lock-based, hand-partialled and RSM reductions.
func BenchmarkAblationReduction(b *testing.B) {
	s := benchSuite()
	var last []harness.ReductionResult
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = s.RunReduction(1 << 14); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range last {
		b.ReportMetric(float64(r.Cycles), "simcycles_"+r.Strategy)
	}
}

// BenchmarkAblationFalseSharing regenerates the Section 7.4 false-sharing
// kernel.
func BenchmarkAblationFalseSharing(b *testing.B) {
	s := benchSuite()
	var last []harness.FalseSharingResult
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = s.RunFalseSharing(8, 10); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range last {
		b.ReportMetric(float64(r.Cycles), "simcycles_"+r.System.String())
	}
}

// BenchmarkAblationStaleData regenerates the Section 7.5 staleness sweep.
func BenchmarkAblationStaleData(b *testing.B) {
	s := benchSuite()
	var last []harness.StaleResult
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = s.RunStaleData(128, 12, []int{0, 4}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range last {
		b.ReportMetric(float64(r.Misses), "simmisses")
	}
}

// NodeSet microbenchmarks: the directory copyset operations that sit on
// the protocols' hot paths, at machine widths on both sides of the
// 64-bit inline/spill boundary.  "P" is the machine width the set is
// sized for; each set holds every fourth node, the shape of a busy
// sharer mask.
func forNodeSetWidths(b *testing.B, bench func(b *testing.B, p int, s *nodeset.Set)) {
	for _, p := range []int{8, 64, 256, 1024} {
		ar := nodeset.NewArena(p - 1)
		s := ar.Make()
		for id := 0; id < p; id += 4 {
			s.Add(id)
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			bench(b, p, &s)
		})
	}
}

func BenchmarkNodeSetMembership(b *testing.B) {
	forNodeSetWidths(b, func(b *testing.B, p int, s *nodeset.Set) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if s.Contains(i % p) {
				hits++
			}
		}
		if hits == 0 && b.N > 3 {
			b.Fatal("no members seen")
		}
	})
}

func BenchmarkNodeSetFanOut(b *testing.B) {
	// The invalidation fan-out shape: iterate every member, touch it.
	forNodeSetWidths(b, func(b *testing.B, p int, s *nodeset.Set) {
		sum := 0
		for i := 0; i < b.N; i++ {
			for it := s.Iter(); ; {
				id, ok := it.Next()
				if !ok {
					break
				}
				sum += id
			}
		}
		if sum == 0 && b.N > 0 && p > 4 {
			b.Fatal("empty iteration")
		}
	})
}

func BenchmarkNodeSetPopcount(b *testing.B) {
	forNodeSetWidths(b, func(b *testing.B, p int, s *nodeset.Set) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += s.Count()
		}
		if total < b.N { // every width holds P/4 >= 2 members
			b.Fatal("bad count")
		}
	})
}

func BenchmarkNodeSetAddRemove(b *testing.B) {
	// The fault-path mutation pair; must stay allocation-free at any P.
	forNodeSetWidths(b, func(b *testing.B, p int, s *nodeset.Set) {
		for i := 0; i < b.N; i++ {
			id := (i*7 + 1) % p
			s.Add(id)
			s.Remove(id)
		}
	})
}
