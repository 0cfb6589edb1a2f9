package tempest

import (
	"lcm/internal/fault"
	"lcm/internal/memsys"
)

// This file implements crash recovery: barrier-epoch checkpoints,
// restart-from-checkpoint for injected kills, and degraded-mode
// re-homing once a node's restart budget is spent.
//
// The checkpoint discipline is coordinated: every node snapshots its
// protocol state at every global barrier, which in this machine is
// exactly where the memory consistency contract makes the state
// meaningful (LCM reconciles at barriers; between them copies are
// intentionally inconsistent).  A node's snapshot holds its installed
// lines — tag, data image, local clean copy, reconcile generations,
// mark/write-mask bookkeeping — i.e. everything the protocol keeps per
// node.  Directory state needs no snapshot: it lives in the global
// simulator structures that survive a node crash (it models state kept
// in the survivors' memories and the home's directory).
//
// Restart is checkpoint-plus-deterministic-replay.  The simulator
// cannot rewind an SPMD body mid-flight, and it does not need to: the
// machine is deterministic under the scheduler, so re-executing the
// epoch's access stream from the restored checkpoint reproduces, bit
// for bit, the state the node held at the crash point.  The live path
// therefore charges the restart (fixed base + per-line restore +
// per-operation replay) and continues from state that is identical to
// the replay's outcome by construction.  RestoreCheckpoint performs the
// literal byte restore; tests use it on quiescent machines to prove the
// snapshot really contains the state a replay would start from.

// lineSnap is one installed line's checkpointed image.
type lineSnap struct {
	block    memsys.BlockID
	tag      Tag
	gen      uint32
	cleanGen uint32
	marked   bool
	wmask    uint64
	data     []byte
	// hasClean records whether the line kept a local clean copy; the
	// clean buffer itself is reused across epochs, so its non-nilness
	// cannot encode that.
	hasClean bool
	clean    []byte
}

// checkpoint is one node's barrier-epoch snapshot.  Buffers are reused
// across epochs, so steady-state checkpointing allocates nothing.
type checkpoint struct {
	// epoch is the barrier count at capture.
	epoch int64
	// clock is the node's virtual time at capture.
	clock int64
	// opsMark is Hits+Misses at capture: the origin for replay
	// accounting when a restart replays the epoch.
	opsMark int64
	lines   []lineSnap
}

// takeCheckpoint snapshots every installed, valid line of n into its
// checkpoint, charging CheckpointPerLine per line.  Called by
// Node.Barrier (owner goroutine, no lock needed: tags are atomic and
// data is only written by the owner or under locks the owner is not
// currently inside).
func (n *Node) takeCheckpoint() {
	ck := &n.ckpt
	bs := int(n.M.AS.BlockSize)
	ck.lines = ck.lines[:0]
	for _, chunk := range n.lineChunks {
		for i := range chunk {
			l := &chunk[i]
			if l.Data == nil {
				break // unallocated arena tail
			}
			if l.Tag() == TagInvalid {
				continue
			}
			// Reuse the slot (and its buffers) from previous epochs.
			if len(ck.lines) < cap(ck.lines) {
				ck.lines = ck.lines[:len(ck.lines)+1]
			} else {
				ck.lines = append(ck.lines, lineSnap{})
			}
			s := &ck.lines[len(ck.lines)-1]
			s.block = l.block
			s.tag = l.Tag()
			s.gen = l.Gen
			s.cleanGen = l.CleanGen
			s.marked = l.Marked
			s.wmask = l.WMask
			if s.data == nil {
				s.data = make([]byte, bs)
			}
			copy(s.data, l.Data)
			s.hasClean = l.Clean != nil
			if s.hasClean {
				if s.clean == nil {
					s.clean = make([]byte, bs)
				}
				copy(s.clean, l.Clean)
			}
		}
	}
	ck.epoch = n.Ctr.Barriers
	ck.clock = n.clock
	ck.opsMark = n.Ctr.Hits + n.Ctr.Misses
	n.clock += int64(len(ck.lines)) * n.M.Cost.CheckpointPerLine
	n.Ctr.Checkpoints++
}

// restartFromCheckpoint models node n crashing and restarting from its
// last barrier-epoch checkpoint, charging restore and replay in virtual
// cycles.  See the file comment for why the live path does not (and
// need not) literally rewind state.
func (n *Node) restartFromCheckpoint() {
	c := &n.M.Cost
	lines := int64(len(n.ckpt.lines))
	ops := n.Ctr.Hits + n.Ctr.Misses - n.ckpt.opsMark
	charge := c.RestartBase + lines*c.RestorePerLine + ops*c.ReplayPerOp
	n.clock += charge
	n.Ctr.Restarts++
	n.Ctr.RestoredLines += lines
	n.Ctr.ReplayedOps += ops
	n.Ctr.RecoveryCycles += charge
}

// RestoreCheckpoint literally restores the node's lines to the last
// checkpoint image: snapshotted lines get their tag, data, clean copy
// and bookkeeping back; lines installed after the snapshot are
// invalidated.  For quiescent machines only (tests and post-mortem
// inspection) — the live restart path models the restore plus a
// deterministic replay, which lands back on the current state.
func (n *Node) RestoreCheckpoint() {
	ck := &n.ckpt
	snapped := make(map[memsys.BlockID]bool, len(ck.lines))
	for i := range ck.lines {
		s := &ck.lines[i]
		snapped[s.block] = true
		l := n.lines[s.block]
		l.SetTag(s.tag)
		l.Gen = s.gen
		l.CleanGen = s.cleanGen
		l.Marked = s.marked
		l.WMask = s.wmask
		copy(l.Data, s.data)
		if s.hasClean {
			if l.Clean == nil {
				l.Clean = n.BlockBuf()
			}
			copy(l.Clean, s.clean)
		} else {
			l.Clean = nil
		}
	}
	for _, chunk := range n.lineChunks {
		for i := range chunk {
			l := &chunk[i]
			if l.Data == nil {
				break
			}
			if !snapped[l.block] {
				l.SetTag(TagInvalid)
				l.Marked = false
				l.WMask = 0
				l.Clean = nil
			}
		}
	}
	n.mruLine = nil
}

// CheckpointLines returns the number of lines in the node's last
// checkpoint (0 before the first barrier).
func (n *Node) CheckpointLines() int { return len(n.ckpt.lines) }

// Degraded reports whether the node's home responsibility has migrated
// to a peer (degraded mode).
func (n *Node) Degraded() bool { return n.degraded }

// killed handles an injected kill of node n triggered after `after`
// events: a machine-wide abort by default; under a KillRecover plan, a
// checkpoint restart — and, once the node has been killed past its
// restart budget, degraded-mode re-homing.  Runs in the dying node's
// goroutine at a point where it holds no block lock.
func (n *Node) killed(f *fault.Injector, after int) {
	if !f.Plan().KillRecover {
		panic(&fault.KillError{Node: n.ID, After: after})
	}
	n.restartFromCheckpoint()
	if int(n.Ctr.Restarts) > f.RestartBudget() {
		n.M.rehomeNode(n)
	}
}

// Rehomer is implemented by protocols that keep per-home aggregate state
// which must migrate when a home's responsibility moves in degraded
// mode.  LCM implements it to hand the dead home's dirty-block list to
// the adopter; Stache's directory is purely per-block and needs no hook.
type Rehomer interface {
	Rehome(from, to int)
}

// rehomeNode declares node n dead for homing purposes: every block it
// homes migrates to the next live peer, the protocol migrates its
// per-home state, and n continues as a pure compute client (the run
// completes with P−1 serving nodes).  The home images need no copy in
// the simulator — they live in the global address space — which models
// the adopter taking over the dead node's memory pages; what is charged
// is the directory/image handover, one block-sized transfer per
// migrated block through the network model.
func (m *Machine) rehomeNode(n *Node) {
	if m.P < 2 || n.degraded {
		return
	}
	to := -1
	for i := 1; i < m.P; i++ {
		cand := (n.ID + i) % m.P
		if !m.Nodes[cand].degraded {
			to = cand
			break
		}
	}
	if to < 0 {
		return // no live peer left to adopt the regions
	}
	n.degraded = true
	moved := m.AS.Rehome(n.ID, to)
	var cyc int64
	for i := int64(0); i < moved; i++ {
		cyc += m.Net.Flush(n.ID, to, int64(m.AS.BlockSize), n.Clock()+cyc, &n.Ctr.Net)
	}
	n.clock += cyc
	if r, ok := m.protocol.(Rehomer); ok {
		r.Rehome(n.ID, to)
	}
	n.Ctr.Rehomings++
	n.Ctr.RehomedBlocks += moved
}
