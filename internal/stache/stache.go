// Package stache implements the baseline user-level coherence protocol of
// the paper: Stache, a sequentially consistent, directory-based,
// write-invalidate protocol in which a processor's local memory acts as a
// large, fully associative cache for remote data (Reinhardt, Larus & Wood,
// "Tempest and Typhoon", ISCA 1994).
//
// In RSM terms (Section 3 of the LCM paper), Stache is the degenerate
// instance of Reconcilable Shared Memory: its request policy permits at
// most one outstanding writable copy of a block, and its reconciliation
// function simply makes a returned writable copy the new value of the
// location.
//
// The simulation does not model capacity evictions: the paper's Stache
// backs cached blocks with all of local memory, so for the benchmark sizes
// used here a block fetched by a node stays resident until the protocol
// invalidates it.  A home node's own blocks live in the home memory image
// and cost a local fill on first touch.
package stache

import (
	"fmt"

	"lcm/internal/memsys"
	"lcm/internal/nodeset"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// dirState is the home directory state of one block.
type dirState uint8

const (
	// stateIdle: only the home memory image is valid; no cached copies.
	stateIdle dirState = iota
	// stateShared: one or more read-only copies; home image valid.
	stateShared
	// stateExcl: exactly one read-write copy; home image stale.
	stateExcl
)

// entry is one block's home directory record.  Guarded by the block's lock.
type entry struct {
	sharers nodeset.Set // nodes holding read-only copies
	owner   int32       // exclusive owner when state == stateExcl
	state   dirState
}

// Protocol is the Stache coherence protocol.  One instance serves one
// machine.  It also serves as the coherent-region fallback inside the LCM
// protocol (internal/core).
type Protocol struct {
	m       *tempest.Machine
	entries []entry
}

// New creates a Stache protocol instance.
func New() *Protocol { return &Protocol{} }

// Name implements tempest.Protocol.
func (p *Protocol) Name() string { return "stache" }

// Attach implements tempest.Protocol.
func (p *Protocol) Attach(m *tempest.Machine) {
	p.m = m
	p.entries = make([]entry, m.AS.NumBlocks())
	// P > 64 spills the sharer sets past their inline word; carve the
	// spill storage from one arena (see internal/nodeset).
	if ar := nodeset.NewArena(m.P - 1); ar.Words() > 0 {
		for i := range p.entries {
			p.entries[i].sharers = ar.Make()
		}
	}
}

// Entry state inspection for tests: returns (state name, owner, and the
// sharer set's inline word — the tests drive machines of at most 64
// nodes, where the word is the whole set).
func (p *Protocol) inspect(b memsys.BlockID) (string, int, uint64) {
	e := &p.entries[b]
	switch e.state {
	case stateIdle:
		return "idle", -1, e.sharers.Low64()
	case stateShared:
		return "shared", -1, e.sharers.Low64()
	case stateExcl:
		return "excl", int(e.owner), e.sharers.Low64()
	}
	return "?", -1, 0
}

// chargeMiss charges the requester for a data-carrying miss and counts it.
// threeHop records whether the dirty remote copy at owner had to be
// consulted; owner is ignored otherwise.
func (p *Protocol) chargeMiss(n *tempest.Node, home, owner int, threeHop bool) {
	m := p.m
	n.Ctr.Misses++
	if home == n.ID && !threeHop {
		n.Charge(m.Cost.LocalFill)
		n.Ctr.LocalFills++
		return
	}
	n.Charge(m.Net.RoundTrip(n.ID, home, int64(m.AS.BlockSize), n.Clock(), &n.Ctr.Net))
	n.Ctr.RemoteMisses++
	if threeHop {
		n.Charge(m.Net.Forward(home, owner, n.Clock(), &n.Ctr.Net))
	}
	if home != n.ID {
		m.Nodes[home].ChargeRemote(m.Cost.HomeOccupancy)
	}
}

// recallDirty downgrades or invalidates the exclusive owner's copy.
// Coherent stores write through to the home image (see tempest), so the
// home already holds the owner's data; only the owner's access rights
// change.  Caller holds b's lock.
func (p *Protocol) recallDirty(b memsys.BlockID, e *entry, downgradeTo tempest.Tag) {
	owner := p.m.Nodes[int(e.owner)]
	l := owner.Line(b)
	if l == nil {
		panic(fmt.Sprintf("stache: directory says node %d owns block %d but it has no line", e.owner, b))
	}
	l.SetTag(downgradeTo)
}

// ReadFault implements tempest.Protocol: obtain a read-only copy.
func (p *Protocol) ReadFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	m := p.m
	home := m.AS.HomeOf(b)
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	defer m.Unlock(b)
	e := &p.entries[b]
	threeHop := false
	owner := home
	if e.state == stateExcl {
		if int(e.owner) == n.ID {
			// Our own line must still be readable; a read fault here
			// means the tag was dropped without telling the
			// directory, which is a protocol bug.
			panic(fmt.Sprintf("stache: node %d read fault on its own exclusive block %d", n.ID, b))
		}
		owner = int(e.owner)
		p.recallDirty(b, e, tempest.TagReadOnly)
		e.sharers.Clear()
		e.sharers.Add(int(e.owner))
		e.state = stateShared
		threeHop = true
	}
	l := n.Install(b, m.AS.HomeData(b), tempest.TagReadOnly)
	e.sharers.Add(n.ID)
	e.state = stateShared
	p.chargeMiss(n, home, owner, threeHop)
	if t := m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.ReadMiss, uint32(b), 0)
	}
	return l
}

// WriteFault implements tempest.Protocol: obtain the (single) writable
// copy, invalidating all other copies.
func (p *Protocol) WriteFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	m := p.m
	home := m.AS.HomeOf(b)
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	defer m.Unlock(b)
	e := &p.entries[b]

	if e.state == stateExcl {
		if int(e.owner) == n.ID {
			panic(fmt.Sprintf("stache: node %d write fault on its own exclusive block %d", n.ID, b))
		}
		// Three-hop: recall the dirty copy, invalidate the old owner.
		oldOwner := int(e.owner)
		p.recallDirty(b, e, tempest.TagInvalid)
		n.Ctr.InvalidationsSent++
		n.Charge(m.Net.Invalidate(n.ID, oldOwner, n.Clock(), &n.Ctr.Net))
		e.sharers.Clear()
		e.state = stateIdle
		l := n.Install(b, m.AS.HomeData(b), tempest.TagReadWrite)
		e.state = stateExcl
		e.owner = int32(n.ID)
		p.chargeMiss(n, home, oldOwner, true)
		if t := m.Trace; t != nil {
			t.Record(n.ID, n.Clock(), trace.WriteMiss, uint32(b), 0)
		}
		return l
	}

	// Invalidate outstanding read-only copies (other than ours).
	p.invalidateSharers(n, b, e)

	var l *tempest.Line
	if e.sharers.Contains(n.ID) || hasValidLine(n, b) {
		// Upgrade in place: we already hold the current data read-only.
		l = n.Line(b)
		l.SetTag(tempest.TagReadWrite)
		n.Ctr.Upgrades++
		if home == n.ID {
			n.Charge(m.Cost.MarkLocal)
		} else {
			n.Charge(m.Net.Upgrade(n.ID, home, n.Clock(), &n.Ctr.Net))
			p.m.Nodes[home].ChargeRemote(m.Cost.HomeOccupancy)
		}
	} else {
		l = n.Install(b, m.AS.HomeData(b), tempest.TagReadWrite)
		p.chargeMiss(n, home, home, false)
	}
	if t := m.Trace; t != nil {
		k := trace.WriteMiss
		if l.Tag() == tempest.TagReadWrite && e.sharers.Contains(n.ID) {
			k = trace.Upgrade
		}
		t.Record(n.ID, n.Clock(), k, uint32(b), 0)
	}
	e.sharers.Clear()
	e.state = stateExcl
	e.owner = int32(n.ID)
	return l
}

// hasValidLine reports whether n holds a readable line for b (used when the
// directory lost track, which cannot happen under the invariants but keeps
// the upgrade path robust).
func hasValidLine(n *tempest.Node, b memsys.BlockID) bool {
	l := n.Line(b)
	return l != nil && l.Tag() >= tempest.TagReadOnly
}

// invalidateSharers invalidates all read-only copies other than n's own and
// charges n for them.  Caller holds b's lock.  Returns the count.
func (p *Protocol) invalidateSharers(n *tempest.Node, b memsys.BlockID, e *entry) int {
	count := 0
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if id == n.ID {
			continue
		}
		if l := p.m.Nodes[id].Line(b); l != nil {
			l.SetTag(tempest.TagInvalid)
		}
		if t := p.m.Trace; t != nil {
			t.Record(n.ID, n.Clock(), trace.Invalidate, uint32(b), int32(id))
		}
		n.Charge(p.m.Net.Invalidate(n.ID, id, n.Clock(), &n.Ctr.Net))
		count++
	}
	n.Ctr.InvalidationsSent += int64(count)
	return count
}

// Evict implements tempest.Protocol: drop n's copy of b, updating the
// directory.  Coherent stores write through, so the home image is already
// current and even a dirty exclusive copy can be dropped after charging
// the write-back message.
func (p *Protocol) Evict(n *tempest.Node, b memsys.BlockID) bool {
	m := p.m
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	defer m.Unlock(b)
	l := n.Line(b)
	if l == nil || l.Tag() == tempest.TagInvalid {
		return true
	}
	e := &p.entries[b]
	switch {
	case e.state == stateExcl && int(e.owner) == n.ID:
		e.state = stateIdle
		e.sharers.Clear()
		// Dirty write-back message (no payload charge: coherent stores
		// wrote the data through to the home image as they happened).
		n.Charge(m.Net.Flush(n.ID, m.AS.HomeOf(b), 0, n.Clock(), &n.Ctr.Net))
	default:
		e.sharers.Remove(n.ID)
		if e.sharers.Empty() && e.state == stateShared {
			e.state = stateIdle
		}
		n.Charge(m.Cost.MarkLocal) // silent drop of a clean copy
	}
	l.SetTag(tempest.TagInvalid)
	return true
}

// DrainToHome is retained for API symmetry with earlier revisions: since
// coherent stores write through to the home image, the home copy of every
// block is already current and there is nothing to drain.
func (p *Protocol) DrainToHome() {}

// MarkModification implements tempest.Protocol.  Under plain coherent
// memory the directive degenerates to "make the block writable", which is
// what the C** compiler's explicit-copying code needs anyway.
func (p *Protocol) MarkModification(n *tempest.Node, addr memsys.Addr) {
	b := p.m.AS.Block(addr)
	if l := n.Line(b); l == nil || l.Tag() < tempest.TagReadWrite {
		p.WriteFault(n, b)
	}
}

// FlushCopies implements tempest.Protocol.  Coherent memory has no private
// copies to flush; this is a no-op.
func (p *Protocol) FlushCopies(*tempest.Node) {}

// ReconcileCopies implements tempest.Protocol.  Coherent memory is always
// reconciled; the directive degenerates to the global barrier, which keeps
// workload code identical across memory systems.
func (p *Protocol) ReconcileCopies(n *tempest.Node) { n.Barrier() }

var _ tempest.Protocol = (*Protocol)(nil)
