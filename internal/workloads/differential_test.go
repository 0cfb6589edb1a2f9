package workloads

import (
	"reflect"
	"testing"

	"lcm/internal/cstar"
)

// Differential tests for the span fast path: every Table-1 workload runs
// twice per memory system — once through the span/MRU engine and once with
// Config.ScalarAccess forcing the per-element accessors — and the two runs
// must agree on the answers (Verify) and on every observable: simulated
// cycles, all aggregated node counters, and the shared-counter snapshot.
//
// Historically, Cycles was asserted only at P=1 and Copying fault counts
// at P>1 were compared on a "stream-determined subset": under free-running
// goroutines, barrier clock folding and mid-phase invalidation order
// depended on host scheduling.  The deterministic scheduler
// (internal/sched, the only engine) makes the interleaving a pure
// function of (workload, P, seed); the span and scalar engines funnel
// through the same fault points with identical charges, so they replay the
// same schedule and every field — cycles included — must now match
// bit-exactly at every P.

type diffRow struct {
	name string
	run  func(sys cstar.System, cfg Config) Result
}

func diffRows() []diffRow {
	return []diffRow{
		{"Stencil-stat", func(sys cstar.System, cfg Config) Result {
			return RunStencil(sys, StencilSpec{N: 64, Iters: 4, Sched: "static"}, cfg)
		}},
		{"Stencil-dyn", func(sys cstar.System, cfg Config) Result {
			return RunStencil(sys, StencilSpec{N: 64, Iters: 4, Sched: "dynamic"}, cfg)
		}},
		{"Adaptive-stat", func(sys cstar.System, cfg Config) Result {
			return RunAdaptive(sys, AdaptiveSpec{N: 16, MaxDepth: 3, Iters: 8, Sched: "static",
				Electrodes: 3, SubdivThreshold: 4}, cfg)
		}},
		{"Adaptive-dyn", func(sys cstar.System, cfg Config) Result {
			return RunAdaptive(sys, AdaptiveSpec{N: 16, MaxDepth: 3, Iters: 8, Sched: "dynamic",
				Electrodes: 3, SubdivThreshold: 4}, cfg)
		}},
		{"Threshold", func(sys cstar.System, cfg Config) Result {
			return RunThreshold(sys, ThresholdSpec{N: 64, Iters: 6, Threshold: 0.05, Sources: 4}, cfg)
		}},
		{"Unstructured", func(sys cstar.System, cfg Config) Result {
			return RunUnstructured(sys, UnstructuredSpec{Nodes: 128, Edges: 512, Iters: 12,
				Seed: 42, Stride: 8}, cfg)
		}},
	}
}

var diffSystems = []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}

// TestSpanScalarDifferential: span and scalar execution of every workload
// must produce identical verified answers, identical protocol counts, and
// identical simulated cycles — at P=8, for every memory system, with no
// carve-outs.
func TestSpanScalarDifferential(t *testing.T) {
	for _, row := range diffRows() {
		for _, sys := range diffSystems {
			cfg := Config{P: 8, Verify: true}
			span := row.run(sys, cfg)
			cfg.ScalarAccess = true
			scal := row.run(sys, cfg)
			name := row.name + "/" + sys.String()
			if span.Err != nil {
				t.Errorf("%s: span run failed: %v", name, span.Err)
				continue
			}
			if scal.Err != nil {
				t.Errorf("%s: scalar run failed: %v", name, scal.Err)
				continue
			}
			if span.Cycles != scal.Cycles {
				t.Errorf("%s: cycles diverge: span %d, scalar %d", name, span.Cycles, scal.Cycles)
			}
			if span.C != scal.C {
				t.Errorf("%s: node counters diverge:\n span   %+v\n scalar %+v", name, span.C, scal.C)
			}
			if span.S != scal.S {
				t.Errorf("%s: shared counters diverge:\n span   %+v\n scalar %+v", name, span.S, scal.S)
			}
			if !reflect.DeepEqual(span.Extra, scal.Extra) {
				t.Errorf("%s: extras diverge: span %v, scalar %v", name, span.Extra, scal.Extra)
			}
		}
	}
}

// TestSpanScalarCyclesSerial: at P=1 the simulation is fully serial, so
// simulated time itself must be bit-identical between span and scalar
// execution.
func TestSpanScalarCyclesSerial(t *testing.T) {
	for _, row := range diffRows() {
		for _, sys := range diffSystems {
			cfg := Config{P: 1, Verify: true}
			span := row.run(sys, cfg)
			cfg.ScalarAccess = true
			scal := row.run(sys, cfg)
			name := row.name + "/" + sys.String()
			if span.Err != nil || scal.Err != nil {
				t.Errorf("%s: run failed: span %v, scalar %v", name, span.Err, scal.Err)
				continue
			}
			if span.Cycles != scal.Cycles {
				t.Errorf("%s: cycles diverge: span %d, scalar %d", name, span.Cycles, scal.Cycles)
			}
			if span.C != scal.C {
				t.Errorf("%s: node counters diverge:\n span   %+v\n scalar %+v", name, span.C, scal.C)
			}
		}
	}
}
