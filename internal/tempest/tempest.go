// Package tempest implements the simulated parallel machine that plays the
// role of the paper's CM-5 + Blizzard-E substrate.
//
// The machine is a collection of autonomous nodes connected by a
// point-to-point network.  Each node runs its program on its own goroutine
// and owns a virtual cycle clock.  Every program load and store consults
// the node's fine-grain access-control tag for the addressed block —
// exactly the control point Blizzard-E instruments — and a disallowed
// access invokes the active coherence protocol's user-level fault handler.
// Protocol handlers run synchronously in the faulting node's goroutine
// under the block's home lock, charging the requester the modelled network
// latency and the home node a handler-occupancy charge; this mirrors the
// execution-driven simulation methodology of the Wisconsin Wind Tunnel
// project from which the paper comes.
//
// The package deliberately exposes the Tempest control points and nothing
// more: access-control tags, block data transfer, fault-handler dispatch,
// and barriers.  Coherence policy lives entirely in user-level protocol
// packages (internal/stache, internal/core).
package tempest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
	"lcm/internal/stats"
	"lcm/internal/trace"
)

// Tag is a fine-grain access-control tag.  Order matters: a load is legal
// when tag >= TagReadOnly, a store when tag >= TagReadWrite.
type Tag = uint32

const (
	// TagInvalid: no access; any reference faults.
	TagInvalid Tag = iota
	// TagReadOnly: loads succeed, stores fault.
	TagReadOnly
	// TagReadWrite: exclusive coherent copy; loads and stores succeed.
	TagReadWrite
	// TagPrivate: LCM private-modified copy; loads and stores succeed but
	// the contents are intentionally inconsistent with global memory
	// until reconciliation.
	TagPrivate
)

// TagName returns a short human-readable tag name for traces and tests.
func TagName(t Tag) string {
	switch t {
	case TagInvalid:
		return "inv"
	case TagReadOnly:
		return "ro"
	case TagReadWrite:
		return "rw"
	case TagPrivate:
		return "priv"
	default:
		return fmt.Sprintf("tag(%d)", t)
	}
}

// Line is a node's cached copy of one block.  The tag is atomic because
// remote protocol handlers revoke access concurrently with the owner's tag
// checks; everything else is mutated only by the owning node's goroutine or
// under the block's lock (see the data-movement rules in DESIGN.md).
type Line struct {
	tag atomic.Uint32

	// Data is the cached copy, blockSize bytes.
	Data []byte

	// Clean is the node-local clean copy kept by LCM-mcc (nil when none).
	Clean []byte

	// Gen is protocol scratch: LCM stores the reconcile-phase generation
	// in which the line was installed or marked.
	Gen uint32

	// CleanGen is the reconcile-phase generation in which Clean was
	// captured; a clean copy is only valid within its own phase.
	CleanGen uint32

	// Marked records that the line is on the node's marked-blocks list
	// for the current invocation (owner goroutine only).
	Marked bool

	// inFIFO records residency-queue membership for capacity-limited
	// machines (owner goroutine only).
	inFIFO bool

	// WMask records which 32-bit words of a private copy were stored to
	// since the last mark, at store granularity (owner goroutine only).
	// Maintained only for conflict-checked regions, where reconciliation
	// must see value-equal stores as modifications (the paper's footnote
	// 2 store-trapping scheme).
	WMask uint64

	// block is the line's block ID, fixed at first install (lines map
	// 1:1 to (node, block) for the machine's lifetime).  It lets audits
	// walk a node's installed lines without scanning the full table.
	block memsys.BlockID
}

// Block returns the block the line caches.
func (l *Line) Block() memsys.BlockID { return l.block }

// Tag returns the line's current access tag.
func (l *Line) Tag() Tag { return l.tag.Load() }

// SetTag stores a new access tag.  Callers must either be the owning node's
// goroutine or hold the block's lock.
func (l *Line) SetTag(t Tag) { l.tag.Store(t) }

// Protocol is a user-level coherence protocol: the policy code that Tempest
// dispatches to on access faults and memory-system directives.  Fault
// handlers run in the faulting node's goroutine and must return a line with
// a tag permitting the faulted access.
type Protocol interface {
	// Name identifies the protocol in reports ("stache", "lcm-mcc", ...).
	Name() string

	// Attach is called once at Machine.Freeze so the protocol can size
	// its per-block directory state.
	Attach(m *Machine)

	// ReadFault handles a load with no readable copy.
	ReadFault(n *Node, b memsys.BlockID) *Line

	// WriteFault handles a store with no writable copy.
	WriteFault(n *Node, b memsys.BlockID) *Line

	// MarkModification is the LCM directive: create an inconsistent
	// writable copy of the block containing addr (Section 5.1).
	// Coherent protocols treat it as an ordinary write preparation.
	MarkModification(n *Node, addr memsys.Addr)

	// FlushCopies is the LCM directive: return this node's modified
	// copies to their homes for (partial) reconciliation, so the next
	// invocation cannot observe them.
	FlushCopies(n *Node)

	// ReconcileCopies is the LCM directive: a global barrier after which
	// memory is coherent again.  Every node must call it.
	ReconcileCopies(n *Node)

	// Evict asks the protocol to drop node n's copy of block b to make
	// room (capacity-limited configurations).  It returns false when the
	// copy cannot be discarded — LCM refuses to evict private-modified
	// blocks, whose only copy of the modifications lives in the cache.
	Evict(n *Node, b memsys.BlockID) bool
}

// Machine is the simulated multicomputer.
type Machine struct {
	P     int
	AS    *memsys.AddressSpace
	Cost  cost.Model
	Nodes []*Node

	// Shared holds machine-wide protocol counters.
	Shared stats.Shared

	// Trace, when non-nil, records protocol events (see internal/trace).
	// Attach with AttachTrace before Run.
	Trace *trace.Buffer

	// CacheLines bounds each node's resident blocks (0 = unbounded, the
	// default: the paper's Stache backs caching with all of local
	// memory).  When set, a fault on a full cache first evicts the
	// oldest resident block FIFO-style.  Set before Run.
	CacheLines int

	// Fault, when non-nil, injects deterministic faults at the
	// data-movement boundary (see internal/fault and faults.go).
	// Attach with AttachFaults.  A plan with KillRecover also turns on
	// crash recovery: every node snapshots its protocol state at each
	// barrier epoch (see checkpoint.go), injected kills restart from the
	// last checkpoint instead of aborting the machine, and a node killed
	// past its restart budget hands its home regions to a live peer
	// (degraded mode).  Nothing is charged without a plan, so fault-free
	// runs stay bit-identical to historical results.
	Fault *fault.Injector

	// Net prices and accounts every protocol message (see internal/net).
	// New installs the uniform model, which reproduces the historical
	// flat charges bit-exactly; SetNetwork swaps in a topology-aware
	// model before Freeze.  Under a lossy fault plan, Freeze wraps the
	// installed model in the retransmission layer (see retrans.go).
	Net net.Network

	// Watchdog, when positive, bounds the wall-clock duration of any
	// single barrier round: a round that stalls past the bound is
	// aborted with per-node diagnostics instead of hanging, and RunErr
	// bounds its post-failure wait for straggler nodes.  The scheduler
	// already turns a barrier some node never reaches into ErrDeadlock
	// without any timer; the watchdog is for what the scheduler cannot
	// see — a node blocked in host code between scheduling points.  Zero
	// (the default) disables all wall-clock timers.  Set before Run.
	Watchdog time.Duration

	// ScalarAccess disables the bulk span transfer paths: every
	// ReadSpan*/WriteSpan*/CopySpan call decomposes into the per-element
	// scalar accessors instead.  Accounting is identical either way (the
	// span engine's contract); the flag exists so differential tests can
	// run both engines over the same workload and assert it.  Set before
	// Run.
	ScalarAccess bool

	// DetSched is ignored: every run uses the deterministic scheduler.
	//
	// Deprecated: the free-running engine this flag once switched off
	// was removed.  Kept only because the perfbench module's Stencil
	// driver still sets it.
	DetSched bool

	// SchedSeed selects the deterministic schedule's tie-break hash (0 =
	// canonical cycle/node order).  Every run is scheduled by
	// internal/sched: node goroutines hand a cooperative token around at
	// synchronization points, so the whole interleaving — and with it
	// simulated cycles and order-dependent fault counts at P>1 — is a
	// pure function of (workload, P, SchedSeed).  Set before Run.
	SchedSeed uint64

	// SchedHook, when non-nil, is invoked on each run's fresh scheduler
	// before it starts, so the model checker (internal/check) can install
	// its chooser, observer, and footprint recording.
	SchedHook func(*sched.Scheduler)

	protocol Protocol
	locks    []sync.Mutex
	bar      *Barrier
	frozen   bool
	cfgErr   error
	schedder *sched.Scheduler

	// trackWrites is set at Freeze when any region requests conflict
	// checking; it gates the per-store word recording.
	trackWrites bool
}

// New creates a machine with p nodes and the given block size and cost
// model.  Allocate regions through AS, install a protocol with SetProtocol,
// then call Freeze before Run.
func New(p int, blockSize uint32, c cost.Model) *Machine {
	m := &Machine{
		P:    p,
		AS:   memsys.NewAddressSpace(p, blockSize),
		Cost: c,
		Net:  net.NewUniform(c, 0),
		bar:  NewBarrier(p),
	}
	m.Nodes = make([]*Node, p)
	for i := range m.Nodes {
		m.Nodes[i] = &Node{ID: i, M: m}
	}
	// Fold every node's stolen handler cycles into the barrier maximum at
	// the instant the last participant arrives.  At that point all P nodes
	// are inside WaitNode — the parked ones under the barrier mutex, so no
	// ChargeRemote can be in flight — which makes the fold race-free and
	// the barrier result independent of host scheduling (the historical
	// FoldStolen wobble: a charge could land before or after its victim's
	// pre-barrier fold, moving the max by the stolen amount).
	m.bar.foldClocks = func() int64 {
		var max int64
		for _, nd := range m.Nodes {
			if c := nd.clock + nd.stolen.Swap(0); c > max {
				max = c
			}
		}
		return max
	}
	return m
}

// SetProtocol installs the coherence protocol.  Must precede Freeze.
func (m *Machine) SetProtocol(p Protocol) {
	if m.frozen {
		panic("tempest: SetProtocol after Freeze")
	}
	m.protocol = p
}

// Protocol returns the installed protocol.
func (m *Machine) Protocol() Protocol { return m.protocol }

// SetNetwork replaces the interconnect model.  Must precede Freeze.
func (m *Machine) SetNetwork(nw net.Network) {
	if m.frozen {
		panic("tempest: SetNetwork after Freeze")
	}
	if nw != nil {
		m.Net = nw
	}
}

// RecordConfigError records a machine-configuration error caused by bad
// user input (an invalid policy, a bad allocation request).  The first
// recorded error is surfaced by FreezeErr and RunErr, so library layers
// can report bad configuration without panicking mid-allocation.
func (m *Machine) RecordConfigError(err error) {
	if m.cfgErr == nil && err != nil {
		m.cfgErr = err
	}
}

// Freeze finalizes the address space, sizes per-node line tables and block
// locks, and attaches the protocol.  Must be called exactly once, after all
// allocation and before Run.  It panics on recorded configuration errors;
// FreezeErr reports them as an error instead.
func (m *Machine) Freeze() {
	if err := m.FreezeErr(); err != nil {
		panic(err)
	}
}

// FreezeErr is Freeze with configuration errors returned rather than
// panicked: bad user-suppliable input (policies, allocation sizes)
// surfaces here.  Misuse of the API itself (double freeze, no protocol)
// still panics.
func (m *Machine) FreezeErr() error {
	if m.frozen {
		panic("tempest: double Freeze")
	}
	if m.protocol == nil {
		panic("tempest: Freeze without a protocol")
	}
	if m.cfgErr != nil {
		return m.cfgErr
	}
	m.frozen = true
	if m.Fault != nil && m.Fault.Plan().Lossy() {
		m.Net = newReliableNet(m.Net, m.Fault, m.P)
	}
	m.AS.Freeze()
	n := m.AS.NumBlocks()
	m.locks = make([]sync.Mutex, n)
	for _, nd := range m.Nodes {
		nd.lines = make([]*Line, n)
		nd.spanBuf = make([]byte, m.AS.BlockSize)
	}
	for _, r := range m.AS.Regions() {
		if r.ConflictCheck {
			m.trackWrites = true
		}
	}
	m.protocol.Attach(m)
	return nil
}

// Frozen reports whether Freeze has run.
func (m *Machine) Frozen() bool { return m.frozen }

// Lock acquires the home/directory lock of block b.  All protocol state
// transitions and cross-node data movement for b happen under this lock.
// Under the deterministic scheduler the lock is uncontended (only the
// token holder runs simulator code) and doubles as the footprint the
// model checker records for sleep-set pruning.
func (m *Machine) Lock(b memsys.BlockID) {
	if s := m.schedder; s != nil { // nil only before the first run
		s.NoteLock(uint32(b))
	}
	m.locks[b].Lock()
}

// Unlock releases block b's lock.
func (m *Machine) Unlock(b memsys.BlockID) { m.locks[b].Unlock() }

// Barrier returns the machine's global barrier.
func (m *Machine) Barrier() *Barrier { return m.bar }

// Sched returns the current (or most recent) run's deterministic
// scheduler, nil before the first run.
func (m *Machine) Sched() *sched.Scheduler { return m.schedder }

// AttachTrace enables event tracing with the given per-node ring capacity.
func (m *Machine) AttachTrace(capacity int) *trace.Buffer {
	m.Trace = trace.New(m.P, capacity)
	return m.Trace
}

// MaxClock returns the maximum virtual clock across nodes.  Meaningful only
// while no node is running.
func (m *Machine) MaxClock() int64 {
	var max int64
	for _, nd := range m.Nodes {
		if c := nd.Clock(); c > max {
			max = c
		}
	}
	return max
}

// TotalCounters sums all per-node counters.  Meaningful only while no node
// is running.
func (m *Machine) TotalCounters() stats.NodeCounters {
	var t stats.NodeCounters
	for _, nd := range m.Nodes {
		t.Add(&nd.Ctr)
	}
	return t
}

// Node is one processing element: a processor, its fine-grain tags and
// cached lines, its local-memory cache, and its virtual clock.
type Node struct {
	ID int
	M  *Machine

	// Ctr is the node's event record (owner goroutine only).
	Ctr stats.NodeCounters

	// PD is per-node protocol state, owned by the active protocol.
	PD any

	clock  int64
	stolen atomic.Int64

	lines []*Line

	// mruBlock/mruLine cache the most recently accessed (block, line)
	// pair so consecutive same-block accesses skip the line-table load.
	// Owner goroutine only; the cached line's atomic tag is still checked
	// on every access, so concurrent remote revocations stay correct (see
	// "Fast-path invariants" in DESIGN.md).  mruLine == nil means empty.
	mruBlock memsys.BlockID
	mruLine  *Line

	// fifo is the residency queue for capacity-limited machines, a
	// head-indexed ring: entries before fifoHead are dead.  The dead
	// prefix is compacted away periodically so the backing array stays
	// proportional to the live queue, not to the eviction history.
	fifo     []memsys.BlockID
	fifoHead int

	// spanBuf is a block-sized staging buffer for the span store path
	// (owner goroutine only), allocated at Freeze.
	spanBuf []byte

	// lineArena and dataArena back new lines in chunks (owner goroutine
	// only): a P-node run creates up to P×blocks lines, so first-touch
	// installs carve from these instead of paying two allocations per
	// block.  lineChunks retains every arena chunk in allocation order
	// so audits can walk installed lines densely (see InstalledLines).
	lineArena  []Line
	dataArena  []byte
	lineChunks [][]Line

	// ckpt is the node's last barrier-epoch checkpoint; degraded marks a
	// node whose home responsibility migrated to a peer.  Both owner
	// goroutine only; see checkpoint.go.
	ckpt     checkpoint
	degraded bool
}

// Clock returns the node's current virtual cycle count including handler
// cycles stolen by other nodes' requests.
func (n *Node) Clock() int64 { return n.clock + n.stolen.Load() }

// SchedYield is a deterministic-scheduler synchronization point: the
// node offers the token at its current virtual time and does not proceed
// until the run queue grants it again.  Protocol handlers call it
// immediately before acquiring a block's home lock, so the order in which
// contending nodes enter a handler is decided by virtual time, not by the
// host's mutex arbitration.
func (n *Node) SchedYield() { n.M.schedder.Yield(n.ID, n.Clock()) }

// Charge advances the node's clock by c cycles (owner goroutine only).
func (n *Node) Charge(c int64) { n.clock += c }

// ChargeRemote charges c cycles to another node's clock (handler occupancy
// stolen from the home processor).  Safe from any goroutine.
func (n *Node) ChargeRemote(c int64) { n.stolen.Add(c) }

// FoldStolen folds stolen handler cycles into the local clock.  Called at
// barriers and at the end of Run.
func (n *Node) FoldStolen() {
	n.clock += n.stolen.Swap(0)
}

// Line returns the node's line for block b, or nil if none was ever
// installed.  The line's tag must be checked before using its data.
func (n *Node) Line(b memsys.BlockID) *Line { return n.lines[b] }

// Install makes the node's line for b hold a copy of src with the given
// tag, creating the line on first use.  Callers must hold b's lock (all
// installs race with cross-node reads of the line pointer, which also
// happen under the lock).  With a fault injector attached, the transfer
// is checksummed and corrupted arrivals are healed by bounded re-fetch
// (see deliverBlock).
func (n *Node) Install(b memsys.BlockID, src []byte, tag Tag) *Line {
	l := n.lines[b]
	if l == nil {
		l = n.newLine(b)
		n.lines[b] = l
	}
	copy(l.Data, src)
	if f := n.M.Fault; f != nil {
		n.deliverBlock(f, b, l, src)
	}
	l.SetTag(tag)
	if n.M.CacheLines > 0 && !l.inFIFO {
		l.inFIFO = true
		n.fifo = append(n.fifo, b)
	}
	return l
}

// lineArenaChunk is how many lines (and line-sized buffers) the node
// arenas grow by at a time.
const lineArenaChunk = 64

// newLine carves a fresh line with a zeroed block-sized data buffer from
// the node's arenas (owner goroutine only; install paths all run in the
// faulting node's goroutine).  The backing arrays are only ever resliced,
// never reallocated, so pointers into them stay valid for the machine's
// lifetime.
func (n *Node) newLine(b memsys.BlockID) *Line {
	if len(n.lineArena) == 0 {
		n.lineArena = make([]Line, lineArenaChunk)
		n.lineChunks = append(n.lineChunks, n.lineArena)
	}
	l := &n.lineArena[0]
	n.lineArena = n.lineArena[1:]
	l.Data = n.BlockBuf()
	l.block = b
	return l
}

// InstalledLines returns the node's line storage in allocation order:
// every line the node has ever installed appears in exactly one chunk,
// carrying its block ID (Line.Block).  Entries with nil Data are the
// unallocated tail of the last chunk.  For quiescent audits only — the
// caller must not run concurrently with the owner goroutine.
func (n *Node) InstalledLines() [][]Line { return n.lineChunks }

// BlockBuf returns a zeroed block-sized buffer carved from the node's
// data arena (owner goroutine only).  Protocols use it for per-line
// auxiliary images (e.g. LCM-mcc local clean copies) so those do not pay
// one allocation per line either.
func (n *Node) BlockBuf() []byte {
	bs := int(n.M.AS.BlockSize)
	if len(n.dataArena) < bs {
		n.dataArena = make([]byte, bs*lineArenaChunk)
	}
	buf := n.dataArena[:bs:bs]
	n.dataArena = n.dataArena[bs:]
	return buf
}

// fifoCompactMin is the dead-prefix length below which makeRoom does not
// bother compacting the residency ring.
const fifoCompactMin = 64

// fifoLen returns the live length of the residency queue.
func (n *Node) fifoLen() int { return len(n.fifo) - n.fifoHead }

// makeRoom evicts resident blocks FIFO-style until the cache is under
// capacity.  Called on the fault path before the protocol installs a new
// line; the caller holds no block lock.  Blocks the protocol refuses to
// evict (LCM private copies) are requeued.
//
// Pops advance fifoHead instead of re-slicing, and the dead prefix is
// copied away once it dominates the backing array: a plain
// `fifo = fifo[1:]` never releases the popped entries, so long
// capacity-limited runs would grow the array without bound.
func (n *Node) makeRoom() {
	capLines := n.M.CacheLines
	if capLines <= 0 {
		return
	}
	attempts := n.fifoLen()
	for n.fifoLen() >= capLines && attempts > 0 {
		attempts--
		b := n.fifo[n.fifoHead]
		n.fifoHead++
		if n.fifoHead >= fifoCompactMin && n.fifoHead*2 >= len(n.fifo) {
			n.fifo = n.fifo[:copy(n.fifo, n.fifo[n.fifoHead:])]
			n.fifoHead = 0
		}
		l := n.lines[b]
		if l == nil {
			continue
		}
		l.inFIFO = false
		if l.Tag() == TagInvalid {
			continue // already revoked remotely; the slot is free
		}
		if !n.M.protocol.Evict(n, b) {
			l.inFIFO = true
			n.fifo = append(n.fifo, b) // unevictable: requeue
			continue
		}
		if n.mruLine != nil && n.mruBlock == b {
			n.mruLine = nil
		}
		n.Ctr.Evictions++
	}
}

// Barrier joins the global barrier: the node's clock is advanced to the
// maximum across nodes plus the barrier cost.  If the barrier is aborted
// while this node waits — a sibling died, or the watchdog detected a
// stall — the node panics with the distinguished abort error, which
// RunErr recovers into a structured collateral failure.
func (n *Node) Barrier() {
	// A plan may kill the node at the epoch boundary, before its arrival
	// resolves the barrier: crash-at-barrier restarts from the *previous*
	// epoch's checkpoint.
	if f := n.M.Fault; f != nil && f.BarrierArrival(n.ID) {
		n.killed(f, f.Plan().KillAtBarrier)
	}
	n.M.Net.Barrier(n.ID, &n.Ctr.Net)
	n.FoldStolen()
	c, err := n.M.bar.WaitNode(n.ID, n.clock)
	if err != nil {
		panic(err)
	}
	n.clock = c + n.M.Cost.Barrier
	n.Ctr.Barriers++
	if f := n.M.Fault; f != nil && f.Plan().KillRecover {
		// The epoch boundary is where the consistency contract makes
		// node state meaningful, so it is the checkpoint point.
		n.takeCheckpoint()
	}
	if t := n.M.Trace; t != nil {
		t.Record(n.ID, n.clock, trace.BarrierEvt, 0, 0)
	}
}

// DropCopy discards this node's read-only copy of the block containing a,
// if any.  The next reference re-fetches the latest value — the consumer-
// driven refresh of the stale-data policy (Section 7.5: "the consumer can
// simply flush the block") and the relinquish half of a shard handoff.
// The drop goes through the protocol's eviction path so the home
// directory forgets the sharer (a silently dropped copy would earn
// useless invalidations later and fails the quiescent audits).  Private
// (modified) copies are not dropped.
func (n *Node) DropCopy(a memsys.Addr) {
	b := n.M.AS.Block(a)
	if l := n.lines[b]; l != nil && l.Tag() == TagReadOnly {
		n.M.protocol.Evict(n, b)
		if n.mruLine != nil && n.mruBlock == b {
			n.mruLine = nil
		}
	}
}

// Mark executes the LCM MarkModification directive for addr.
func (n *Node) Mark(addr memsys.Addr) { n.M.protocol.MarkModification(n, addr) }

// FlushCopies executes the LCM FlushCopies directive.
func (n *Node) FlushCopies() { n.M.protocol.FlushCopies(n) }

// ReconcileCopies executes the LCM ReconcileCopies directive (a global
// barrier; every node must call it).
func (n *Node) ReconcileCopies() { n.M.protocol.ReconcileCopies(n) }
