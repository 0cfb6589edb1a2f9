// Package fault is the simulator's one fault model: a deterministic,
// seed-driven description of everything that can go wrong on the
// simulated Tempest machine, and the one port through which it is
// injected.
//
// The paper's substrate — Blizzard on a real CM-5, with coherence handled
// by user-level software — ran on hardware where lost messages,
// corrupted transfers, stalled handlers and crashed nodes were real
// events.  The simulator's interconnect is perfect, so this package
// re-introduces those events under test control.  A Plan names the
// rates and triggers; an Injector attached to a machine decides, at
// every data-movement boundary, whether to corrupt a block transfer,
// drop, duplicate or reorder a message, spike a home handler's
// occupancy, stall a node's virtual clock, or kill a node outright.
//
// Determinism is the design constraint.  Every node owns an independent
// splitmix64 stream seeded from (Plan.Seed, node ID), and every decision
// about a node's transfers, messages and faults draws from that node's
// stream.  The machine's deterministic scheduler fixes the order of
// those draws, so the same Plan injects the same faults at the same
// points on every run — which is what lets the fault matrix assert that
// recovery counters match the injected plan exactly.
//
// Faults never change program-visible data: corruption is healed by
// re-fetch, dropped messages are retransmitted, duplicates are
// discarded, reordered messages are resequenced, and stalls and spikes
// only charge virtual cycles.  A recoverable run must therefore produce
// results bit-identical to the fault-free run; any divergence is a
// recovery bug.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Plan describes one seeded fault-injection campaign.  Probabilities are
// expressed per mille (0..1000) so that decisions reduce to an integer
// compare against the node's deterministic stream.  The zero value injects
// nothing.
type Plan struct {
	// Seed selects the per-node random streams.
	Seed uint64

	// CorruptPerMil is the per-transfer probability (‰) that the data of
	// a fetched block is corrupted in flight.  Corruption is detected by
	// a per-transfer checksum and healed by bounded re-fetch with
	// exponential backoff, charged in virtual cycles.
	CorruptPerMil int

	// DropPerMil, DupPerMil and ReorderPerMil are the per-message
	// delivery-fault rates (‰), drawn disjointly from one roll per
	// message: drop wins over duplicate wins over reorder.  A dropped
	// message times out and is retransmitted; a duplicate is discarded
	// by the receiver's sequence numbers; a reordered message is held
	// for resequencing.  Any nonzero rate interposes the machine's
	// retransmission layer.
	DropPerMil    int
	DupPerMil     int
	ReorderPerMil int

	// SpikePerMil is the probability (‰), per remote access fault, that
	// the home node's handler suffers an occupancy spike of SpikeCycles.
	SpikePerMil int
	SpikeCycles int64

	// StallPerMil is the probability (‰), per access fault, that the
	// faulting node stalls for StallCycles (a virtual-clock jump).
	StallPerMil int
	StallCycles int64

	// RetryBudget bounds consecutive recovery attempts for one operation
	// (re-fetches of one transfer, re-sends of one message).  Exceeding
	// it is an unrecoverable fault.  Default 8.
	RetryBudget int

	// BackoffBase is the virtual-cycle penalty of the first retry; each
	// further retry doubles it, up to BackoffCap doublings.  Defaults:
	// 3000 cycles (one modelled remote round trip) and 6 doublings.
	BackoffBase int64
	BackoffCap  int

	// KillNode / KillAfter inject a node failure: node KillNode dies on
	// its KillAfter-th access fault.  Active only when KillAfter > 0.
	// Without KillRecover the failure is unrecoverable (machine-wide
	// abort); with it, each kill becomes a deterministic restart from the
	// node's last barrier-epoch checkpoint.
	KillNode  int
	KillAfter int

	// KillRecover turns on crash recovery: every node checkpoints at
	// every barrier, injected kills restart from the last checkpoint
	// (see above), and a node killed past RestartBudget is re-homed.
	KillRecover bool

	// KillCount is the number of kills injected (default 1 when a kill
	// trigger is configured): with KillAfter the node dies at every
	// multiple of KillAfter access faults until KillCount deaths.
	KillCount int

	// KillAtBarrier, when > 0, additionally kills KillNode at its
	// KillAtBarrier-th barrier arrival (before the barrier resolves), so
	// crash-at-the-epoch-boundary is reachable deterministically.
	KillAtBarrier int

	// RestartBudget bounds checkpoint restarts per node.  A node killed
	// again past the budget is declared dead for homing purposes: its
	// home-region responsibility migrates to a live peer (degraded mode)
	// and it continues as a pure compute client.  Default 4.
	RestartBudget int
}

// withDefaults fills the defaulted fields.
func (p Plan) withDefaults() Plan {
	if p.RetryBudget <= 0 {
		p.RetryBudget = 8
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 3000
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 6
	}
	if p.KillCount <= 0 && (p.KillAfter > 0 || p.KillAtBarrier > 0) {
		p.KillCount = 1
	}
	if p.RestartBudget <= 0 {
		p.RestartBudget = 4
	}
	return p
}

// Lossy reports whether the plan injects delivery faults, i.e. whether
// the machine needs its retransmission layer.
func (p Plan) Lossy() bool { return p.DropPerMil > 0 || p.DupPerMil > 0 || p.ReorderPerMil > 0 }

// String renders the plan for reports.
func (p Plan) String() string {
	s := fmt.Sprintf("seed=%#x corrupt=%d‰ drop=%d‰ dup=%d‰ reorder=%d‰ spike=%d‰ stall=%d‰",
		p.Seed, p.CorruptPerMil, p.DropPerMil, p.DupPerMil, p.ReorderPerMil, p.SpikePerMil, p.StallPerMil)
	if p.KillAfter > 0 {
		s += fmt.Sprintf(" kill=n%d@%d", p.KillNode, p.KillAfter)
	}
	if p.KillAtBarrier > 0 {
		s += fmt.Sprintf(" kill=n%d@bar%d", p.KillNode, p.KillAtBarrier)
	}
	if p.KillRecover {
		s += fmt.Sprintf(" recover(x%d,budget=%d)", p.KillCount, p.RestartBudget)
	}
	return s
}

// Tally counts the faults an Injector actually injected.  The fault
// matrix asserts the machine's recovery counters against it.
type Tally struct {
	// Corruptions is the number of block transfers corrupted in flight.
	Corruptions int64
	// Dropped, Duplicated and Reordered count the messages that were
	// lost, delivered twice, and delivered out of order.
	Dropped    int64
	Duplicated int64
	Reordered  int64
	// Spikes is the number of handler occupancy spikes.
	Spikes int64
	// Stalls is the number of node stalls.
	Stalls int64
	// Kills is the number of injected node failures (at most KillCount;
	// unrecoverable unless the plan sets KillRecover).
	Kills int64
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Corruptions += o.Corruptions
	t.Dropped += o.Dropped
	t.Duplicated += o.Duplicated
	t.Reordered += o.Reordered
	t.Spikes += o.Spikes
	t.Stalls += o.Stalls
	t.Kills += o.Kills
}

// Total returns the total number of injected faults.
func (t Tally) Total() int64 {
	return t.Corruptions + t.Dropped + t.Duplicated + t.Reordered + t.Spikes + t.Stalls + t.Kills
}

// String renders the tally for reports.
func (t Tally) String() string {
	return fmt.Sprintf("corruptions=%d dropped=%d duplicated=%d reordered=%d spikes=%d stalls=%d kills=%d",
		t.Corruptions, t.Dropped, t.Duplicated, t.Reordered, t.Spikes, t.Stalls, t.Kills)
}

// nodeStream is one node's injection state.  rng and the delivery
// tallies are guarded by Injector.mu; the trigger counters and the other
// tallies are touched only by the node's own accesses.  Tallies are read
// after the machine quiesces.
type nodeStream struct {
	rng      uint64
	faults   int
	barriers int
	kills    int
	tally    Tally
}

// Injector is the per-machine fault-injection state.  Decision methods
// take the node whose stream they draw from; Tally is for quiescent
// machines only.
type Injector struct {
	plan  Plan
	nodes []nodeStream

	// mu guards the streams and the delivery tallies.  A message's
	// sender need not be the node whose goroutine prices it (a home's
	// forward leg is priced by the requester), and a failing run's
	// nodes unwind concurrently.
	mu sync.Mutex
}

// NewInjector creates an injector for p nodes executing plan.
func NewInjector(p int, plan Plan) *Injector {
	plan = plan.withDefaults()
	in := &Injector{plan: plan, nodes: make([]nodeStream, p)}
	for i := range in.nodes {
		// Decorrelate node streams: mix the seed with the node ID
		// through one splitmix64 round so nearby seeds do not alias.
		in.nodes[i].rng = mix64(plan.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
	}
	return in
}

// Plan returns the injector's plan (with defaults applied).
func (in *Injector) Plan() Plan { return in.plan }

// Tally sums the injected-fault tallies across nodes.  Call only while
// the machine is quiescent.
func (in *Injector) Tally() Tally {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t Tally
	for i := range in.nodes {
		t.Add(in.nodes[i].tally)
	}
	return t
}

// NodeTally returns node i's injected-fault tally (quiescent only).
func (in *Injector) NodeTally(i int) Tally {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodes[i].tally
}

// next advances node's stream and returns the next 64-bit value.
func (in *Injector) next(node int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step(node)
}

// step is next with mu held.
func (in *Injector) step(node int) uint64 {
	s := &in.nodes[node]
	s.rng += 0x9e3779b97f4a7c15
	return mix64(s.rng)
}

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll draws one decision with probability perMil/1000.
func (in *Injector) roll(node, perMil int) bool {
	if perMil <= 0 {
		return false
	}
	return in.next(node)%1000 < uint64(perMil)
}

// CorruptTransfer decides whether node's next inbound block transfer is
// corrupted, tallying an injection when it is.
func (in *Injector) CorruptTransfer(node int) bool {
	if !in.roll(node, in.plan.CorruptPerMil) {
		return false
	}
	in.nodes[node].tally.Corruptions++
	return true
}

// CorruptBytes flips one deterministic bit of data in place, simulating a
// transfer error on the wire.
func (in *Injector) CorruptBytes(node int, data []byte) {
	if len(data) == 0 {
		return
	}
	bit := in.next(node) % uint64(len(data)*8)
	data[bit/8] ^= 1 << (bit % 8)
}

// Delivery is the fate of one injected message.
type Delivery uint8

const (
	// Delivered: the message arrives intact, in order, exactly once.
	Delivered Delivery = iota
	// Dropped: the message is lost; the sender times out and must
	// retransmit.
	Dropped
	// Duplicated: the message arrives twice; the receiver's sequence
	// numbers discard the second copy.
	Duplicated
	// Reordered: the message arrives ahead of an earlier one; the
	// receiver holds it until the gap fills (virtual-time resequencing,
	// no extra latency charged).
	Reordered
)

func (d Delivery) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Duplicated:
		return "duplicated"
	case Reordered:
		return "reordered"
	default:
		return fmt.Sprintf("Delivery(%d)", uint8(d))
	}
}

// Deliver draws the fate of src's next injected message from src's
// stream, tallying any injected fault.  A plan with no delivery-fault
// rate draws nothing and delivers everything.
func (in *Injector) Deliver(src int) Delivery {
	p := &in.plan
	if !p.Lossy() {
		return Delivered
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	v := in.step(src) % 1000
	t := &in.nodes[src].tally
	switch {
	case v < uint64(p.DropPerMil):
		t.Dropped++
		return Dropped
	case v < uint64(p.DropPerMil+p.DupPerMil):
		t.Duplicated++
		return Duplicated
	case v < uint64(p.DropPerMil+p.DupPerMil+p.ReorderPerMil):
		t.Reordered++
		return Reordered
	default:
		return Delivered
	}
}

// OccupancySpike decides whether the home handler serving node's next
// remote fault suffers an occupancy spike, returning the spike cycles.
func (in *Injector) OccupancySpike(node int) (int64, bool) {
	if !in.roll(node, in.plan.SpikePerMil) {
		return 0, false
	}
	in.nodes[node].tally.Spikes++
	return in.plan.SpikeCycles, true
}

// Stall decides whether node stalls at its next access fault, returning
// the virtual-clock jump.
func (in *Injector) Stall(node int) (int64, bool) {
	if !in.roll(node, in.plan.StallPerMil) {
		return 0, false
	}
	in.nodes[node].tally.Stalls++
	return in.plan.StallCycles, true
}

// AccessFault records one access fault on node and reports whether the
// plan's kill triggers now.  With KillCount > 1 the node dies at every
// multiple of KillAfter access faults until KillCount kills are injected.
func (in *Injector) AccessFault(node int) bool {
	if in.plan.KillAfter <= 0 || node != in.plan.KillNode {
		return false
	}
	s := &in.nodes[node]
	s.faults++
	if s.faults%in.plan.KillAfter != 0 || s.kills >= in.plan.KillCount {
		return false
	}
	s.kills++
	s.tally.Kills++
	return true
}

// BarrierArrival records one barrier arrival of node and reports whether
// the plan's barrier kill triggers now.
func (in *Injector) BarrierArrival(node int) bool {
	if in.plan.KillAtBarrier <= 0 || node != in.plan.KillNode {
		return false
	}
	s := &in.nodes[node]
	s.barriers++
	if s.barriers != in.plan.KillAtBarrier || s.kills >= in.plan.KillCount {
		return false
	}
	s.kills++
	s.tally.Kills++
	return true
}

// RestartBudget returns the per-node checkpoint-restart budget; one more
// kill past it re-homes the node's home regions (degraded mode).
func (in *Injector) RestartBudget() int { return in.plan.RestartBudget }

// RetryBudget returns the bounded retry budget per operation.
func (in *Injector) RetryBudget() int { return in.plan.RetryBudget }

// Backoff returns the virtual-cycle backoff penalty of the attempt-th
// retry (1-based): exponential with a capped number of doublings.
func (in *Injector) Backoff(attempt int) int64 {
	sh := attempt - 1
	if sh < 0 {
		sh = 0
	}
	if sh > in.plan.BackoffCap {
		sh = in.plan.BackoffCap
	}
	return in.plan.BackoffBase << sh
}

// Checksum is the per-transfer checksum (FNV-1a 64) used to detect
// corrupted block transfers.
func Checksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// ErrKilled is the sentinel for an injected unrecoverable node failure
// (match with errors.Is).
var ErrKilled = errors.New("fault: injected unrecoverable node failure")

// KillError reports an injected unrecoverable node failure.
type KillError struct {
	Node  int
	After int // access-fault count at which the node died
}

func (e *KillError) Error() string {
	return fmt.Sprintf("fault: injected unrecoverable failure on node %d (access fault %d)", e.Node, e.After)
}

// Is matches ErrKilled.
func (e *KillError) Is(target error) bool { return target == ErrKilled }

// ErrRetryExhausted is the sentinel for a recovery retry budget running
// out (match with errors.Is).
var ErrRetryExhausted = errors.New("fault: recovery retry budget exhausted")

// RetryExhaustedError reports a recovery that exceeded its retry budget
// and became unrecoverable.
type RetryExhaustedError struct {
	Node     int
	Op       string // "block transfer" or "retransmission"
	Block    uint32
	Attempts int
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("fault: node %d %s for block %d unrecoverable after %d attempts",
		e.Node, e.Op, e.Block, e.Attempts)
}

// Is matches ErrRetryExhausted.
func (e *RetryExhaustedError) Is(target error) bool { return target == ErrRetryExhausted }
