// Package lcm is a library reproduction of "LCM: Memory System Support for
// Parallel Language Implementation" (Larus, Richards & Viswanathan,
// Univ. of Wisconsin-Madison, 1994): Reconcilable Shared Memory (RSM),
// the Loosely Coherent Memory (LCM) protocol, the Stache baseline, and a
// C**-style data-parallel runtime — all running on a simulated Tempest
// machine with fine-grain access control and a virtual-time cost model.
//
// # Quick start
//
//	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 8, System: lcm.LCMmcc})
//	a := lcm.NewMatrixF32(m, "A", 256, 256, lcm.LooselyCoherent(), lcm.Interleaved)
//	m.Freeze()
//	plan := lcm.Lower(lcm.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, lcm.LCMmcc)
//	m.Run(func(n *lcm.Node) {
//		lcm.ForEach(n, lcm.StaticSchedule{}, plan, 0, 254*254, func(idx int) {
//			i, j := 1+idx/254, 1+idx%254
//			v := (a.Get(n, i-1, j) + a.Get(n, i+1, j) + a.Get(n, i, j-1) + a.Get(n, i, j+1)) / 4
//			a.Set(n, i, j, v)
//		})
//		lcm.EndParallel(n)
//	})
//
// Every Get/Set flows through the simulated machine's access-control tags,
// so the selected memory system observes — and charges virtual cycles for
// — exactly the access stream a compiled C** program would produce.  See
// TUTORIAL.md for a walkthrough, the examples directory for complete
// programs, cmd/lcmbench for the paper's experiments, and DESIGN.md for
// the system inventory.
package lcm

import (
	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/lang"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// Machine is the simulated multicomputer (see internal/tempest).
type Machine = tempest.Machine

// Node is one simulated processor; workload code receives one per
// SPMD goroutine and issues all memory accesses through it.
type Node = tempest.Node

// Line is a node's cached copy of a block.
type Line = tempest.Line

// SimLock is a simulated inter-node lock with serialized virtual time.
type SimLock = tempest.SimLock

// Addr is a global simulated byte address.
type Addr = memsys.Addr

// BlockID identifies a coherence block.
type BlockID = memsys.BlockID

// Region is a policy-carrying allocation in the global address space.
type Region = memsys.Region

// HomePolicy selects how a region's blocks map to home nodes.
type HomePolicy = memsys.HomePolicy

// Home policies.
const (
	Interleaved = memsys.Interleaved
	Blocked     = memsys.Blocked
	SingleHome  = memsys.SingleHome
)

// CostModel holds the virtual-time charges.
type CostModel = cost.Model

// DefaultCost returns the CM-5/Blizzard-calibrated cost model used for the
// paper reproduction.
func DefaultCost() CostModel { return cost.Default() }

// System selects a memory system: the Stache + explicit-copying baseline
// or one of the two LCM variants.
type System = cstar.System

// Memory systems.
const (
	Copying = cstar.Copying
	LCMscc  = cstar.LCMscc
	LCMmcc  = cstar.LCMmcc
)

// Policy bundles an RSM request policy and reconciliation function.
type Policy = core.Policy

// Reconciler combines returning copies of a block at its home.
type Reconciler = core.Reconciler

// Policy constructors (see internal/core).
var (
	// Coherent is sequentially consistent cache coherence.
	Coherent = core.Coherent
	// LooselyCoherent is the C** copy-on-write policy.
	LooselyCoherent = core.LooselyCoherent
	// Reduction reconciles with an associative combiner.
	Reduction = core.Reduction
	// Detect adds semantic-violation detection (Sections 7.2/7.3).
	Detect = core.Detect
	// Stale lets consumer copies survive producer updates (Section 7.5).
	Stale = core.Stale
)

// Built-in reconcilers.
type (
	// Overwrite keeps one surviving value per modified element.
	Overwrite = core.Overwrite
	// SumF32 accumulates float32 contributions.
	SumF32 = core.SumF32
	// SumF64 accumulates float64 contributions.
	SumF64 = core.SumF64
	// SumI64 accumulates int64 contributions.
	SumI64 = core.SumI64
	// MinF64 keeps the minimum written value.
	MinF64 = core.MinF64
	// MaxF64 keeps the maximum written value.
	MaxF64 = core.MaxF64
	// ProdF64 multiplies contributions.
	ProdF64 = core.ProdF64
	// Func adapts a user function to the Reconciler interface.
	Func = core.Func
)

// Conflict is a detected semantic violation.
type Conflict = core.Conflict

// Conflict kinds.
const (
	WriteWrite = core.WriteWrite
	ReadWrite  = core.ReadWrite
)

// MachineConfig configures NewMachine.
type MachineConfig struct {
	// Nodes is the processor count (default 32, the paper's CM-5
	// partition size).  Machines up to 64 nodes keep every directory
	// copyset in a single inline word; larger machines — CI verifies
	// P=256 grids and a P=1024 smoke — spill into multi-word sets
	// (internal/nodeset) with no change in observables.
	Nodes int
	// BlockSize is the coherence block size in bytes (default 32 = eight
	// single-precision floats, as in the paper; power of two, 8..256).
	BlockSize uint32
	// System selects the memory system; the zero value is the Copying
	// baseline (Stache + explicit copying).  Pass LCMmcc for the
	// paper's best-performing variant.
	System System
	// Cost overrides the virtual-time cost model (default DefaultCost).
	Cost *CostModel
}

// NewMachine builds a simulated machine.  Allocate aggregates, then call
// Freeze on the machine, then Run.  Runs are deterministic: the machine's
// scheduler lets one node execute at a time in virtual-time order, so
// repeated runs of the same program produce identical cycles and
// counters.  Node bodies synchronize through the machine (barriers,
// reductions, simulated locks), never through host primitives such as
// channels, which would wait on a node that cannot run.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.Nodes == 0 {
		cfg.Nodes = 32
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 32
	}
	cm := cost.Default()
	if cfg.Cost != nil {
		cm = *cfg.Cost
	}
	return cstar.NewMachine(cfg.Nodes, cfg.BlockSize, cm, cfg.System)
}

// Conflicts returns the semantic violations detected by an LCM machine so
// far (regions with a Detect policy only); nil on the Copying baseline.
// Call only while the machine is quiescent.
func Conflicts(m *Machine) []Conflict {
	if p, ok := m.Protocol().(*core.LCM); ok {
		return p.Conflicts()
	}
	return nil
}

// DrainToHome flushes dirty cached state to home images for sequential
// inspection via Peek; call only while the machine is quiescent.
func DrainToHome(m *Machine) { cstar.DrainToHome(m) }

// DataPolicy is the policy a C** compiler gives shared aggregate data
// under the given system.
func DataPolicy(sys System) Policy { return cstar.DataPolicy(sys) }

// Aggregates (see internal/cstar).
type (
	// VectorF32 is a float32 aggregate.
	VectorF32 = cstar.VectorF32
	// VectorF64 is a float64 aggregate.
	VectorF64 = cstar.VectorF64
	// VectorI32 is an int32 aggregate.
	VectorI32 = cstar.VectorI32
	// VectorI64 is an int64 aggregate.
	VectorI64 = cstar.VectorI64
	// MatrixF32 is a 2-D row-major float32 aggregate.
	MatrixF32 = cstar.MatrixF32
	// ReduceF64 is a C** reduction variable.
	ReduceF64 = cstar.ReduceF64
)

// Aggregate constructors.
var (
	NewVectorF32 = cstar.NewVectorF32
	NewVectorF64 = cstar.NewVectorF64
	NewVectorI32 = cstar.NewVectorI32
	NewVectorI64 = cstar.NewVectorI64
	NewMatrixF32 = cstar.NewMatrixF32
	NewReduceF64 = cstar.NewReduceF64
)

// C** runtime pieces (see internal/cstar).
type (
	// AccessSummary is what compiler analysis extracts from a parallel
	// function body.
	AccessSummary = cstar.AccessSummary
	// Plan is the lowered implementation strategy.
	Plan = cstar.Plan
	// Scheduler partitions invocations across nodes.
	Scheduler = cstar.Scheduler
	// StaticSchedule partitions once (the paper's "-stat" variants).
	StaticSchedule = cstar.StaticSchedule
	// RotatingSchedule re-partitions each iteration ("-dyn" variants).
	RotatingSchedule = cstar.RotatingSchedule
)

// ReduceOp selects a reduction variable's combining operator.
type ReduceOp = cstar.ReduceOp

// Reduction operators.
const (
	OpSum = cstar.OpSum
	OpMin = cstar.OpMin
	OpMax = cstar.OpMax
)

// NewReduceF64Op allocates a reduction variable with an explicit operator.
var NewReduceF64Op = cstar.NewReduceF64Op

// Mini C** front end (see internal/lang): compile parallel functions from
// source text, analyze their accesses, and run them on the machine.
type (
	// CStarProgram is a compiled parallel function.
	CStarProgram = lang.Program
	// CStarInstance binds a compiled program to a machine.
	CStarInstance = lang.Instance
)

// CompileCStar parses and analyzes a C**-style parallel function.
var CompileCStar = lang.Compile

// Lower plays the C** compiler: pick a plan for a parallel function.
var Lower = cstar.Lower

// ForEach runs one node's share of a parallel call.
var ForEach = cstar.ForEach

// EndParallel completes a parallel call (reconciliation barrier); every
// node must call it.
var EndParallel = cstar.EndParallel
