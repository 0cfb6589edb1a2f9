package tempest

import (
	"lcm/internal/fault"
	"lcm/internal/memsys"
)

// This file wires the fault injector into the Tempest data-movement
// boundary.  The injection points cover the substrate failures the
// paper's real CM-5 hardware could exhibit:
//
//   - block-transfer corruption, detected by a per-transfer checksum and
//     healed by bounded re-fetch with exponential backoff (deliverBlock);
//   - message drop, duplication and reordering, survived by the
//     retransmission layer (retrans.go);
//   - handler occupancy spikes and node stalls that stress the cost
//     model without touching data (preFault);
//   - node kills, aborting the machine or restarting from a checkpoint
//     (preFault, Node.Barrier and checkpoint.go).
//
// All recovery is charged in virtual cycles and recorded in the node's
// counters; injected faults never change program-visible data, so a run
// under any recoverable plan is bit-identical to the fault-free run.
// Exhausting a retry budget — or an unrecoverable kill — panics with a
// structured error that RunErr recovers into a per-node failure.

// AttachFaults attaches a deterministic fault injector executing plan;
// it may precede or follow SetNetwork.  A plan with delivery-fault rates
// must be attached before Freeze, which interposes the retransmission
// layer; other plans may also be attached to a frozen machine.  Pass the
// zero Plan to model a perfect interconnect with checksums still
// verified.
func (m *Machine) AttachFaults(plan fault.Plan) *fault.Injector {
	if m.frozen && plan.Lossy() {
		panic("tempest: AttachFaults with delivery faults after Freeze")
	}
	m.Fault = fault.NewInjector(m.P, plan)
	return m.Fault
}

// preFault runs the injector's pre-dispatch faults for an access fault on
// block b.  It executes in the faulting node's goroutine before the
// protocol handler, exactly where Blizzard's trap entry ran.
func (n *Node) preFault(b memsys.BlockID) {
	f := n.M.Fault
	if f == nil {
		return
	}
	if f.AccessFault(n.ID) {
		n.killed(f, f.Plan().KillAfter)
	}
	if cyc, ok := f.Stall(n.ID); ok {
		n.clock += cyc
		n.Ctr.Stalls++
		n.Ctr.StallCycles += cyc
	}
	home := n.M.AS.HomeOf(b)
	if home == n.ID {
		return // local fill: no home handler to spike
	}
	if cyc, ok := f.OccupancySpike(n.ID); ok {
		n.M.Nodes[home].ChargeRemote(cyc)
		n.Ctr.OccupancySpikes++
	}
}

// deliverBlock models the arrival of a block transfer into line l.  The
// sender's per-transfer checksum is verified against the received data; a
// mismatch triggers a bounded re-fetch with exponential backoff, charged
// in virtual cycles.  Runs in the receiving node's goroutine with src
// stable (the caller holds the block's lock), so the re-fetch can simply
// re-copy the true data.
func (n *Node) deliverBlock(f *fault.Injector, b memsys.BlockID, l *Line, src []byte) {
	sum := fault.Checksum(src)
	remote := n.M.AS.HomeOf(b) != n.ID
	for attempt := 1; ; attempt++ {
		if f.CorruptTransfer(n.ID) {
			f.CorruptBytes(n.ID, l.Data)
		}
		if fault.Checksum(l.Data) == sum {
			return // transfer verified intact
		}
		n.Ctr.CorruptedTransfers++
		if attempt > f.RetryBudget() {
			panic(&fault.RetryExhaustedError{
				Node: n.ID, Op: "block transfer", Block: uint32(b), Attempts: attempt,
			})
		}
		backoff := f.Backoff(attempt)
		n.Ctr.FaultRetries++
		n.Ctr.BackoffCycles += backoff
		if remote {
			n.clock += n.M.Net.RoundTrip(n.ID, n.M.AS.HomeOf(b), int64(n.M.AS.BlockSize), n.Clock(), &n.Ctr.Net) + backoff
		} else {
			n.clock += n.M.Cost.LocalFill + backoff
		}
		copy(l.Data, src)
	}
}
