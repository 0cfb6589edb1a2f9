// Package workloads implements the paper's four C** benchmarks — Stencil,
// Adaptive, Threshold and Unstructured — each runnable under all three
// memory systems (Stache + explicit copying, LCM-scc, LCM-mcc) and, where
// the paper measured it, under both static and dynamic partitioning.
//
// Every workload:
//
//   - allocates its aggregates in the simulated global address space with
//     the policies the C** compiler would choose for the target system,
//   - runs the same parallel computation SPMD on the simulated machine so
//     the protocols observe the real access stream, and
//   - verifies its numerical result against a sequential reference
//     implementation (bit-exact: the parallel schedule computes each
//     element with the same float expression and operand values).
package workloads

import (
	"fmt"
	"time"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/fault"
	"lcm/internal/net"
	"lcm/internal/stache"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// Config is the machine configuration shared by all workloads.
type Config struct {
	// P is the number of processors (paper: 32).
	P int
	// BlockSize is the coherence block size in bytes (paper: 32, eight
	// single-precision floats).
	BlockSize uint32
	// CostModel sets the virtual-time charges; zero value means
	// cost.Default().
	CostModel *cost.Model
	// Verify runs the sequential reference and checks the result.
	Verify bool
	// TraceCap, when positive, attaches a protocol event trace with this
	// many retained events per node; it is returned in Result.Trace.
	TraceCap int
	// CacheLines bounds each node's resident blocks (0 = unbounded, the
	// paper's configuration: Stache backs caching with all of local
	// memory).
	CacheLines int
	// Faults, when non-nil, attaches a deterministic fault injector
	// executing this plan (see internal/fault): corruption, message
	// drop/duplicate/reorder, spikes, stalls and kills, with crash
	// recovery when the plan sets KillRecover.  Recovery is charged in
	// virtual cycles; injections are tallied in Result.Faults.
	Faults *fault.Plan
	// Watchdog, when positive, bounds the wall-clock duration of any
	// barrier round; a stalled barrier is aborted with diagnostics
	// instead of hanging the process.
	Watchdog time.Duration
	// ScalarAccess disables the machine's bulk span transfer paths so
	// every access goes through the per-element scalar accessors, for
	// differential testing of the span engine (accounting must be
	// identical either way).
	ScalarAccess bool
	// Net selects the interconnect model (nil = uniform, which matches
	// the historical flat charges bit-exactly; see internal/net).
	Net *net.Config
	// SchedSeed selects the deterministic schedule (see internal/sched):
	// every (workload, P, seed) triple replays bit-identically, including
	// simulated cycles and copying-mode fault counts at P>1.  Seed 0 is
	// the canonical (cycle, node) order; other seeds permute same-cycle
	// ties.
	SchedSeed uint64
}

func (c Config) norm() Config {
	if c.P == 0 {
		c.P = 32
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32
	}
	if c.CostModel == nil {
		m := cost.Default()
		c.CostModel = &m
	}
	return c
}

func (c Config) machine(sys cstar.System) *tempest.Machine {
	m := cstar.NewMachine(c.P, c.BlockSize, *c.CostModel, sys)
	if c.TraceCap > 0 {
		m.AttachTrace(c.TraceCap)
	}
	m.CacheLines = c.CacheLines
	if c.Faults != nil {
		m.AttachFaults(*c.Faults)
	}
	m.Watchdog = c.Watchdog
	m.ScalarAccess = c.ScalarAccess
	m.SchedSeed = c.SchedSeed
	if c.Net != nil {
		nw, err := net.New(*c.Net, c.P, *c.CostModel)
		if err != nil {
			m.RecordConfigError(err)
		} else {
			m.SetNetwork(nw)
		}
	}
	return m
}

// Result is one workload run's measurements.
type Result struct {
	Workload string
	System   cstar.System
	Sched    string
	// Cycles is the simulated execution time (max node clock).
	Cycles int64
	// C aggregates per-node protocol counters.
	C stats.NodeCounters
	// S holds the shared counters (clean copies, conflicts, ...).
	S stats.Snapshot
	// Extra carries per-workload facts (modified ratios, cell counts).
	Extra map[string]float64
	// PerNodeClocks and PerNodeMisses summarize load balance.
	PerNodeClocks stats.Summary
	PerNodeMisses stats.Summary
	// Wall is the host wall-clock duration of the run when measured by
	// the harness (zero otherwise).  Host time is a property of the
	// simulator, not of the simulated machine — it never feeds back into
	// Cycles or any counter.
	Wall time.Duration
	// Trace holds the protocol event trace when Config.TraceCap was set.
	Trace *trace.Buffer
	// Faults is the injector's record of faults injected during the run
	// (zero when Config.Faults was nil).
	Faults fault.Tally
	// KV holds the serving-workload observables (zero for the paper's
	// four kernels).
	KV KVStats
	// Net is the run's network model name; Links summarizes channel
	// occupancy (all zero under the uniform model, which has no links).
	Net   string
	Links net.LinkStats
	// Err is non-nil if the run failed (a node died, a retry budget ran
	// out, the watchdog fired) or verification failed.
	Err error
}

// CleanCopies returns the paper's Table 1 clean-copy metric for the run's
// system: home copies under scc, per-processor copies under mcc, zero for
// the Copying baseline.
func (r Result) CleanCopies() int64 {
	switch r.System {
	case cstar.LCMscc:
		return r.S.CleanCopiesHome
	case cstar.LCMmcc:
		return r.S.CleanCopiesLocal
	default:
		return 0
	}
}

// Label renders "name-sched" ("Stencil-stat") like the paper's tables.
// Schedules without a table abbreviation (the KV mixes) keep their full
// name rather than collapsing to a dangling "name-".
func (r Result) Label() string {
	if r.Sched == "" {
		return r.Workload
	}
	abbrev, ok := map[string]string{"static": "stat", "dynamic": "dyn"}[r.Sched]
	if !ok {
		abbrev = r.Sched
	}
	return fmt.Sprintf("%s-%s", r.Workload, abbrev)
}

// finish collects machine-wide measurements into r after a run and audits
// the protocol's invariants (directory state vs access tags, no live
// private copies between phases).
func finish(m *tempest.Machine, r *Result) {
	r.Cycles = m.MaxClock()
	r.C = m.TotalCounters()
	r.S = m.Shared.Snapshot()
	r.Net = m.Net.Name()
	r.Links = m.Net.LinkStats()
	r.Trace = m.Trace
	if m.Fault != nil {
		r.Faults = m.Fault.Tally()
	}
	clocks := make([]int64, m.P)
	misses := make([]int64, m.P)
	for i, nd := range m.Nodes {
		clocks[i] = nd.Clock()
		misses[i] = nd.Ctr.Misses
	}
	r.PerNodeClocks = stats.Summarize(clocks)
	r.PerNodeMisses = stats.Summarize(misses)
	switch p := m.Protocol().(type) {
	case *core.LCM:
		r.Err = p.CheckQuiescent()
	case *stache.Protocol:
		r.Err = p.CheckInvariants()
	}
}

// schedFor maps a name to a scheduler.
func schedFor(name string) cstar.Scheduler {
	switch name {
	case "dynamic":
		return cstar.RotatingSchedule{}
	default:
		return cstar.StaticSchedule{}
	}
}

// approxEq compares float32 values bit-exactly; the parallel executions
// evaluate identical expressions on identical operands, so no tolerance is
// needed (any difference is a semantics bug, which is the point).
func approxEq(a, b float32) bool { return a == b }
