// Package core implements the paper's contribution: the Reconcilable
// Shared Memory (RSM) model and its Loosely Coherent Memory (LCM)
// instance.
//
// RSM generalizes cache-coherent shared memory by placing two points of a
// coherence protocol under program control (Section 3):
//
//  1. the action taken when a processor requests a copy of a block
//     (the request policy), and
//  2. the way multiple outstanding copies of a block are brought back into
//     agreement (the reconciliation function).
//
// Unlike conventional shared memory, RSM places no restriction on multiple
// outstanding writable copies.  LCM exploits that freedom to implement
// C**'s "atomic and simultaneous" parallel-function semantics: a write to
// shared data creates a private copy of the containing block
// (copy-on-write after MarkModification), memory becomes intentionally
// inconsistent for the duration of the parallel call, and a global
// ReconcileCopies merges all private modifications back into a single
// coherent state using the region's reconciliation function.
//
// Two variants are implemented, matching the paper's measurements:
//
//   - LCM-scc keeps a single clean copy of each marked block at the
//     block's home; after a FlushCopies the flushing node's copy is
//     invalidated, so reuse re-fetches from home.
//   - LCM-mcc additionally keeps a clean copy on every processor that
//     marks the block; FlushCopies reverts the cached copy to the local
//     clean copy, so spatial/temporal reuse between invocations hits.
//
// Accesses to regions of kind memsys.KindCoherent fall through to an
// embedded Stache protocol, so a single machine mixes loosely coherent and
// sequentially consistent data exactly as the C** compiler requires.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"lcm/internal/memsys"
	"lcm/internal/nodeset"
	"lcm/internal/stache"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// Variant selects the clean-copy placement policy.
type Variant uint8

const (
	// SCC: single clean copy, kept at the block's home node.
	SCC Variant = iota
	// MCC: multiple clean copies, one at every processor that marks the
	// block, in addition to the home's.
	MCC
)

func (v Variant) String() string {
	if v == MCC {
		return "lcm-mcc"
	}
	return "lcm-scc"
}

// entry is the home-side LCM directory record for one block.  Guarded by
// the block's lock; the phase fields are lazily reset when gen is stale.
type entry struct {
	// sharers is the set of nodes currently holding read-only copies.
	// It persists across phases (unmodified blocks keep their copies).
	sharers nodeset.Set

	// gen is the reconcile phase for which the fields below are valid.
	gen uint32

	// readers is the set of nodes that faulted a read this phase
	// (tracked only for conflict-checked regions).
	readers nodeset.Set
	// writers is the set of nodes that returned modified elements.
	writers nodeset.Set
	// written is the per-element modified bitmask (elements, not nodes:
	// a block holds at most 64 four-byte words, so this stays a word).
	written uint64

	// pending is the merge image for the phase; hasPending records
	// whether it is live (the buffer itself is reused across phases).
	// While live, pending doubles as the home's "clean copy" ledger
	// entry: its creation is the clean-copy event of Table 1.
	pending    []byte
	hasPending bool
	registered bool
}

// nodeState is the per-node LCM state: the blocks marked since the last
// flush.  Stored in tempest.Node.PD.
type nodeState struct {
	marked []memsys.BlockID
}

// ConflictKind distinguishes the two semantic violations LCM can detect.
type ConflictKind uint8

const (
	// WriteWrite: two processors wrote different values to one element.
	WriteWrite ConflictKind = iota
	// ReadWrite: readable and written copies of a block were
	// simultaneously outstanding in one phase.
	ReadWrite
)

func (k ConflictKind) String() string {
	if k == ReadWrite {
		return "read-write"
	}
	return "write-write"
}

// Conflict describes one detected semantic violation (Sections 7.2/7.3).
type Conflict struct {
	Kind    ConflictKind
	Block   memsys.BlockID
	Elem    int         // element index within the block (WriteWrite only)
	Region  string      // region name
	Writers nodeset.Set // writer set at detection time
	Readers nodeset.Set // reader set (ReadWrite only)
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s conflict in %q block %d elem %d (writers %v readers %v)",
		c.Kind, c.Region, c.Block, c.Elem, c.Writers, c.Readers)
}

// conflictLog collects detected violations in detection order, which the
// deterministic scheduler makes the serial grant order; guarded by its own
// mutex since different block locks may report.
type conflictLog struct {
	mu    sync.Mutex
	list  []Conflict
	limit int
}

func (cl *conflictLog) add(c Conflict) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.limit == 0 || len(cl.list) < cl.limit {
		cl.list = append(cl.list, c)
	}
}

// CommitMode selects how reconciliation commits pending images.
type CommitMode uint8

const (
	// CommitHomeParallel: each home commits its own blocks inside the
	// reconciliation barrier window — reconciliation work is spread
	// across the machine (the default, and the reason Section 5.1's
	// feared bottleneck does not materialize).
	CommitHomeParallel CommitMode = iota
	// CommitSerial: one node commits every block.  Provided for the
	// ablation that makes the Section 5.1 bottleneck visible; a real
	// system would never choose it.
	CommitSerial
)

// LCM is the Loosely Coherent Memory protocol.
type LCM struct {
	m        *tempest.Machine
	variant  Variant
	commit   CommitMode
	coherent *stache.Protocol

	entries []entry
	phase   atomic.Uint32

	dirty   [][]memsys.BlockID
	dirtyMu []sync.Mutex

	conflicts conflictLog
}

// New creates an LCM protocol instance of the given variant.
func New(v Variant) *LCM {
	return &LCM{variant: v, coherent: stache.New(), conflicts: conflictLog{limit: 1024}}
}

// SetCommitMode selects the reconciliation commit strategy.  Call before
// the machine runs.
func (p *LCM) SetCommitMode(m CommitMode) { p.commit = m }

// Name implements tempest.Protocol.
func (p *LCM) Name() string { return p.variant.String() }

// Variant returns the clean-copy placement policy.
func (p *LCM) Variant() Variant { return p.variant }

// Phase returns the current reconcile-phase generation.
func (p *LCM) Phase() uint32 { return p.phase.Load() }

// DrainToHome flushes dirty coherent-region copies to the home image for
// sequential verification (see stache.Protocol.DrainToHome).  LCM-region
// data is already committed at home by ReconcileCopies.  Call only while
// the machine is quiescent.
func (p *LCM) DrainToHome() { p.coherent.DrainToHome() }

// Conflicts returns the violations detected so far (conflict-checked
// regions only), in serial grant order.  Call only while the machine is
// quiescent.
func (p *LCM) Conflicts() []Conflict {
	p.conflicts.mu.Lock()
	defer p.conflicts.mu.Unlock()
	return append([]Conflict(nil), p.conflicts.list...)
}

// Attach implements tempest.Protocol.
func (p *LCM) Attach(m *tempest.Machine) {
	if m.AS.BlockSize > 256 {
		// The per-element written mask tracks at most 64 four-byte
		// words per block.  A config error (not a panic) so the run
		// fails gracefully through Machine.RunErr, per the tempest
		// error-path convention.
		m.RecordConfigError(fmt.Errorf(
			"core: block size %d exceeds 256 bytes (the per-element modified bitmask tracks at most 64 words per block)",
			m.AS.BlockSize))
	}
	p.m = m
	p.entries = make([]entry, m.AS.NumBlocks())
	// P > 64 spills the directory copysets past their inline word; carve
	// the spill storage from one arena so the directory stays a handful
	// of allocations at any machine size.
	if ar := nodeset.NewArena(m.P - 1); ar.Words() > 0 {
		for i := range p.entries {
			e := &p.entries[i]
			e.sharers = ar.Make()
			e.readers = ar.Make()
			e.writers = ar.Make()
		}
	}
	p.dirty = make([][]memsys.BlockID, m.P)
	p.dirtyMu = make([]sync.Mutex, m.P)
	p.phase.Store(1)
	for _, n := range m.Nodes {
		n.PD = &nodeState{}
	}
	// Resolve default reconcilers per region so the flush path never
	// branches on nil.
	for _, r := range m.AS.Regions() {
		if r.Reconciler == nil {
			switch r.Kind {
			case memsys.KindReduction:
				panic(fmt.Sprintf("core: reduction region %q needs a Reconciler", r.Name))
			default:
				r.Reconciler = Overwrite{}
			}
		}
		if _, ok := r.Reconciler.(Reconciler); !ok {
			panic(fmt.Sprintf("core: region %q Reconciler does not implement core.Reconciler", r.Name))
		}
	}
	p.coherent.Attach(m)
}

func (p *LCM) state(n *tempest.Node) *nodeState { return n.PD.(*nodeState) }

// phaseEntry returns b's entry with its phase fields valid for ph.
// Caller holds b's lock.
func (p *LCM) phaseEntry(b memsys.BlockID, ph uint32) *entry {
	e := &p.entries[b]
	if e.gen != ph {
		e.gen = ph
		e.readers.Clear()
		e.writers.Clear()
		e.written = 0
		e.hasPending = false
		e.registered = false
	}
	return e
}

// chargeMiss charges a data-carrying fetch like Stache does.
func (p *LCM) chargeMiss(n *tempest.Node, home int) {
	m := p.m
	n.Ctr.Misses++
	if home == n.ID {
		n.Charge(m.Cost.LocalFill)
		n.Ctr.LocalFills++
		return
	}
	n.Charge(m.Net.RoundTrip(n.ID, home, int64(m.AS.BlockSize), n.Clock(), &n.Ctr.Net))
	n.Ctr.RemoteMisses++
	m.Nodes[home].ChargeRemote(m.Cost.HomeOccupancy)
}

// ReadFault implements tempest.Protocol: obtain a read-only copy carrying
// the pre-phase (clean) value of the block.
func (p *LCM) ReadFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.ReadFault(n, b)
	}
	home := p.m.AS.HomeOf(b)
	ph := p.phase.Load()
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	p.m.Lock(b)
	defer p.m.Unlock(b)
	// The home image is not updated until reconciliation commits, so it
	// is the clean (pre-phase) value throughout the parallel phase.
	l := n.Install(b, p.m.AS.HomeData(b), tempest.TagReadOnly)
	l.Gen = ph
	e := p.phaseEntry(b, ph)
	e.sharers.Add(n.ID)
	if r.ConflictCheck {
		e.readers.Add(n.ID)
	}
	p.chargeMiss(n, home)
	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.ReadMiss, uint32(b), 0)
	}
	return l
}

// WriteFault implements tempest.Protocol.  A store to a loosely coherent
// block with no private copy is the copy-on-write trigger: it behaves as an
// implicit MarkModification (the "memory system detects the unusual case"
// path of the paper's conclusion).
func (p *LCM) WriteFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.WriteFault(n, b)
	}
	return p.mark(n, b)
}

// MarkModification implements tempest.Protocol: create an inconsistent,
// writable private copy of the block containing addr (Section 5.1).
func (p *LCM) MarkModification(n *tempest.Node, addr memsys.Addr) {
	b := p.m.AS.Block(addr)
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		p.coherent.MarkModification(n, addr)
		return
	}
	p.mark(n, b)
}

// mark is the common MarkModification/copy-on-write path.
func (p *LCM) mark(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	ph := p.phase.Load()
	c := p.m.Cost
	n.Ctr.Marks++
	l := n.Line(b)

	// Already private this phase: the directive is a cheap tag check.
	if l != nil && l.Tag() == tempest.TagPrivate && l.Gen == ph {
		n.Charge(c.MarkLocal)
		return l
	}

	// LCM-mcc fast path: a local clean copy from this phase lets the
	// node re-create its private copy without contacting home.
	if p.variant == MCC && l != nil && l.Tag() == tempest.TagReadOnly &&
		l.Clean != nil && l.CleanGen == ph {
		l.SetTag(tempest.TagPrivate)
		l.WMask = 0
		n.Charge(c.MarkLocal)
		p.noteMarked(n, l, b)
		return l
	}

	home := p.m.AS.HomeOf(b)
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	p.m.Lock(b)
	defer p.m.Unlock(b)
	e := p.phaseEntry(b, ph)

	// First mark of this block in this phase: the home creates its clean
	// copy (the pending merge image starts as a copy of the pre-phase
	// value) and registers the block for commit at reconciliation.
	if !e.hasPending {
		if e.pending == nil {
			// Carved from the marking node's arena; published to other
			// goroutines only under b's lock, like the entry itself.
			e.pending = n.BlockBuf()
		}
		copy(e.pending, p.m.AS.HomeData(b))
		e.hasPending = true
		p.m.Shared.CleanCopiesHome.Add(1)
	}
	if !e.registered {
		e.registered = true
		p.dirtyMu[home].Lock()
		p.dirty[home] = append(p.dirty[home], b)
		p.dirtyMu[home].Unlock()
	}

	if l != nil && l.Tag() >= tempest.TagReadOnly {
		// Upgrade in place: the cached data is the pre-phase value.
		l.SetTag(tempest.TagPrivate)
		n.Ctr.Upgrades++
		if home == n.ID {
			n.Charge(c.MarkLocal)
		} else {
			n.Charge(p.m.Net.Upgrade(n.ID, home, n.Clock(), &n.Ctr.Net))
			p.m.Nodes[home].ChargeRemote(c.HomeOccupancy)
		}
	} else {
		// Fetch the clean value from home.
		l = n.Install(b, p.m.AS.HomeData(b), tempest.TagPrivate)
		p.chargeMiss(n, home)
	}
	l.Gen = ph
	l.WMask = 0
	if p.variant == MCC {
		if l.Clean == nil {
			l.Clean = n.BlockBuf()
		}
		copy(l.Clean, l.Data)
		l.CleanGen = ph
		p.m.Shared.CleanCopiesLocal.Add(1)
	}
	// A private writer is no longer a read-only sharer.
	e.sharers.Remove(n.ID)
	p.noteMarked(n, l, b)
	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.Mark, uint32(b), 0)
	}
	return l
}

// noteMarked puts b on the node's marked list exactly once per mark epoch.
func (p *LCM) noteMarked(n *tempest.Node, l *tempest.Line, b memsys.BlockID) {
	if !l.Marked {
		l.Marked = true
		st := p.state(n)
		st.marked = append(st.marked, b)
	}
}

// FlushCopies implements tempest.Protocol: return every private-modified
// block to its home for partial reconciliation, so the next invocation on
// this node cannot observe this invocation's writes (Section 5.1).
func (p *LCM) FlushCopies(n *tempest.Node) {
	st := p.state(n)
	if len(st.marked) == 0 {
		return
	}
	for _, b := range st.marked {
		p.flushBlock(n, b)
	}
	st.marked = st.marked[:0]
}

// flushBlock diffs one private copy against the clean value, merges the
// modified elements into the home's pending image, and releases or reverts
// the private copy according to the variant.
func (p *LCM) flushBlock(n *tempest.Node, b memsys.BlockID) {
	l := n.Line(b)
	if l == nil || l.Tag() != tempest.TagPrivate || !l.Marked {
		panic(fmt.Sprintf("core: node %d flushing block %d which is not private-marked", n.ID, b))
	}
	r := p.m.AS.RegionOfBlock(b)
	rec := r.Reconciler.(Reconciler)
	es := rec.ElemSize()
	home := p.m.AS.HomeOf(b)
	c := p.m.Cost

	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	p.m.Lock(b)
	e := &p.entries[b]
	if !e.hasPending || e.gen != p.phase.Load() {
		p.m.Unlock(b)
		panic(fmt.Sprintf("core: flush of block %d with no pending image", b))
	}
	clean := p.m.AS.HomeData(b)
	words := int64(0)
	bs := p.m.AS.BlockSize
	if !r.ConflictCheck && (es == 4 || es == 8) {
		// Fast diff for the common case (no store-granularity tracking):
		// most of a flushed block is untouched, so compare eight bytes
		// at a time and drop into per-element merging only around actual
		// modifications.  Merge order and results are identical to the
		// per-element loop below.
		for off := uint32(0); off < bs; off += 8 {
			if binary.LittleEndian.Uint64(l.Data[off:]) == binary.LittleEndian.Uint64(clean[off:]) {
				continue
			}
			if es == 8 {
				p.mergeElem(n, b, e, r, rec, es, l, clean, off)
				words++
				continue
			}
			if binary.LittleEndian.Uint32(l.Data[off:]) != binary.LittleEndian.Uint32(clean[off:]) {
				p.mergeElem(n, b, e, r, rec, es, l, clean, off)
				words++
			}
			if binary.LittleEndian.Uint32(l.Data[off+4:]) != binary.LittleEndian.Uint32(clean[off+4:]) {
				p.mergeElem(n, b, e, r, rec, es, l, clean, off+4)
				words++
			}
		}
	} else {
		for off := uint32(0); off < bs; off += es {
			in := l.Data[off : off+es]
			cl := clean[off : off+es]
			// A returning element is "modified" when its value differs
			// from the clean copy, or — in conflict-checked regions,
			// which track stores at word granularity (footnote 2) — when
			// it was stored to at all, even with an unchanged value.
			stored := false
			if r.ConflictCheck {
				for w := off / 4; w < (off+es)/4; w++ {
					if l.WMask&(1<<w) != 0 {
						stored = true
					}
				}
			}
			if equalBytes(in, cl) && !stored {
				continue
			}
			p.mergeElem(n, b, e, r, rec, es, l, clean, off)
			words++
		}
	}
	l.WMask = 0
	if words > 0 {
		e.writers.Add(n.ID)
	}
	n.Ctr.Flushes++
	n.Ctr.WordsFlushed += words * int64(es/4)

	switch p.variant {
	case SCC:
		// Single clean copy at home: drop the private copy; reuse
		// re-fetches the clean value from home.
		l.SetTag(tempest.TagInvalid)
	case MCC:
		// Revert to the local clean copy; the node keeps a readable
		// pre-phase copy without re-fetching.
		copy(l.Data, l.Clean)
		l.SetTag(tempest.TagReadOnly)
		e.sharers.Add(n.ID)
	}
	l.Marked = false
	p.m.Unlock(b)

	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.Flush, uint32(b), int32(words))
	}
	if home == n.ID {
		n.Charge(c.LocalFill + words*c.MergePerWord)
	} else {
		// One-way message carrying the modified elements; the network
		// charges the fixed send cost plus payload bandwidth.
		n.Charge(p.m.Net.Flush(n.ID, home, words*int64(es), n.Clock(), &n.Ctr.Net))
		p.m.Nodes[home].ChargeRemote(c.FlushOccupancy + words*c.MergePerWord)
	}
}

// mergeElem folds the modified element at byte offset off of block b into
// the home's pending image, with conflict detection and accounting.  The
// caller holds b's lock and invokes mergeElem in ascending offset order,
// exactly once per modified element.
func (p *LCM) mergeElem(n *tempest.Node, b memsys.BlockID, e *entry, r *memsys.Region, rec Reconciler, es uint32, l *tempest.Line, clean []byte, off uint32) {
	idx := off / es
	prior := e.written&(1<<idx) != 0
	conflict := rec.Merge(e.pending[off:off+es], l.Data[off:off+es], clean[off:off+es], prior)
	if r.ConflictCheck && prior {
		// Store granularity: any second modifier of an element in one
		// phase is a violation, value-equal or not.
		conflict = true
	}
	if conflict {
		p.m.Shared.WriteConflicts.Add(1)
		if t := p.m.Trace; t != nil {
			t.Record(n.ID, n.Clock(), trace.Conflict, uint32(b), int32(idx))
		}
		if r.ConflictCheck {
			// Cold path: the log snapshot clones the live writer set.
			writers := e.writers.Clone()
			writers.Add(n.ID)
			p.conflicts.add(Conflict{
				Kind: WriteWrite, Block: b, Elem: int(idx),
				Region: r.Name, Writers: writers,
			})
		}
	}
	e.written |= 1 << idx
}

// Evict implements tempest.Protocol.  Private-modified copies must not be
// lost — the paper's Stache exists precisely to back them with local
// memory — so eviction refuses them; read-only copies of loose regions are
// dropped after the home forgets the sharer.  Coherent regions delegate to
// the embedded Stache.
func (p *LCM) Evict(n *tempest.Node, b memsys.BlockID) bool {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.Evict(n, b)
	}
	l := n.Line(b)
	if l == nil || l.Tag() == tempest.TagInvalid {
		return true
	}
	if l.Tag() == tempest.TagPrivate {
		return false
	}
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	p.m.Lock(b)
	defer p.m.Unlock(b)
	p.entries[b].sharers.Remove(n.ID)
	l.SetTag(tempest.TagInvalid)
	n.Charge(p.m.Cost.MarkLocal)
	return true
}

// ReconcileCopies implements tempest.Protocol: the global reconciliation
// barrier (Section 5.1).  Every node flushes its remaining private copies,
// the homes commit pending images in parallel and invalidate outstanding
// copies of modified blocks, and memory returns to a coherent state.
func (p *LCM) ReconcileCopies(n *tempest.Node) {
	ph := p.phase.Load()
	p.FlushCopies(n)
	n.Barrier()
	switch p.commit {
	case CommitSerial:
		// Ablation mode: node 0 performs every home's commit work and
		// is charged for all of it; the barrier then propagates the
		// serialized time to everyone (the Section 5.1 bottleneck).
		if n.ID == 0 {
			for home := 0; home < p.m.P; home++ {
				p.commitLists(n, home, ph)
			}
		}
	default:
		p.commitHome(n, ph)
	}
	if n.ID == 0 {
		p.phase.Store(ph + 1)
	}
	n.Barrier()
}

// commitHome commits every registered block homed at n.  It runs inside
// the reconciliation barrier window: all other nodes are blocked at the
// barrier, so touching their lines' tags and generations is safe, and
// distinct homes own disjoint blocks.
func (p *LCM) commitHome(n *tempest.Node, ph uint32) {
	p.commitLists(n, n.ID, ph)
}

// Rehome implements tempest.Rehomer for degraded-mode recovery: blocks
// homed at `from` have just migrated to `to` (memsys.Rehome), so the
// pending entries of from's dirty list — registered before the migration
// but not yet committed — must move to the adopter's list, or the next
// reconciliation would never commit them (commitHome drains each node's
// own list, and the dead node's is now authoritative for nothing).
// Called from the dying node's goroutine at a deterministic point where
// no node is inside the reconciliation window.
func (p *LCM) Rehome(from, to int) {
	p.dirtyMu[from].Lock()
	list := p.dirty[from]
	p.dirty[from] = list[:0]
	p.dirtyMu[from].Unlock()
	if len(list) == 0 {
		return
	}
	p.dirtyMu[to].Lock()
	p.dirty[to] = append(p.dirty[to], list...)
	p.dirtyMu[to].Unlock()
}

// commitLists commits the dirty list of the given home, charging the work
// to n's clock.
func (p *LCM) commitLists(n *tempest.Node, home int, ph uint32) {
	c := p.m.Cost
	p.dirtyMu[home].Lock()
	list := p.dirty[home]
	p.dirty[home] = list[:0]
	p.dirtyMu[home].Unlock()

	for _, b := range list {
		e := &p.entries[b]
		if e.gen != ph || !e.registered {
			continue
		}
		r := p.m.AS.RegionOfBlock(b)
		if !e.writers.Empty() {
			copy(p.m.AS.HomeData(b), e.pending)
			p.m.Shared.Reconciles.Add(1)
			n.Charge(c.LocalFill)
			if t := p.m.Trace; t != nil {
				t.Record(n.ID, n.Clock(), trace.Commit, uint32(b), int32(bits.OnesCount64(e.written)))
			}
			if r.ConflictCheck && !e.readers.SubsetOf(&e.writers) {
				p.m.Shared.ReadWriteConflicts.Add(1)
				pureReaders := e.readers.Clone()
				pureReaders.Subtract(&e.writers)
				p.conflicts.add(Conflict{
					Kind: ReadWrite, Block: b, Region: r.Name,
					Writers: e.writers.Clone(), Readers: pureReaders,
				})
			}
			p.invalidateOutstanding(n, b, e, r, ph)
		}
		e.hasPending = false
		e.registered = false
	}

	// Actual-violation mode: flush every read-only copy of checked
	// regions so the next phase's reads fault and are observed
	// (the paper's "all read-only cache blocks must be flushed at
	// synchronization points").
	for _, r := range p.m.AS.Regions() {
		if !r.ConflictCheck || !r.FlushReads {
			continue
		}
		for i := uint32(0); i < r.NumBlocks(); i++ {
			b := r.FirstBlock() + memsys.BlockID(i)
			if p.m.AS.HomeOf(b) != home {
				continue
			}
			e := &p.entries[b]
			p.invalidateAllSharers(n, b, e)
		}
	}
}

// invalidateOutstanding removes outstanding read-only copies of a modified
// block, honoring the stale-data policy (Section 7.5): copies of a
// KindStale region younger than StalePhases survive the commit.
func (p *LCM) invalidateOutstanding(n *tempest.Node, b memsys.BlockID, e *entry, r *memsys.Region, ph uint32) {
	// Members are dropped in place while the fan-out walks them —
	// nodeset.Iter snapshots each word before popping its bits, so
	// removing the member just visited is safe and the ascending charge
	// order matches the historical flat-mask loop exactly.
	sent := int64(0)
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		l := p.m.Nodes[id].Line(b)
		if l == nil {
			e.sharers.Remove(id)
			continue
		}
		if r.Kind == memsys.KindStale && ph-l.Gen < uint32(r.StalePhases) {
			continue // stale policy: the young copy survives the commit
		}
		e.sharers.Remove(id)
		l.SetTag(tempest.TagInvalid)
		n.Charge(p.m.Net.Invalidate(n.ID, id, n.Clock(), &n.Ctr.Net))
		sent++
	}
	n.Ctr.InvalidationsSent += sent
}

// invalidateAllSharers drops every read-only copy of b.
func (p *LCM) invalidateAllSharers(n *tempest.Node, b memsys.BlockID, e *entry) {
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if l := p.m.Nodes[id].Line(b); l != nil {
			l.SetTag(tempest.TagInvalid)
		}
		n.Ctr.InvalidationsSent++
		n.Charge(p.m.Net.Invalidate(n.ID, id, n.Clock(), &n.Ctr.Net))
	}
	e.sharers.Clear()
}

var _ tempest.Protocol = (*LCM)(nil)
