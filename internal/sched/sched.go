// Package sched is the seeded deterministic scheduler for the simulated
// multicomputer.
//
// The simulator historically let node goroutines free-run: protocol fault
// handlers serialized on per-block home locks and barrier folding on a
// mutex, so which node won a contended lock — and therefore the order of
// directory transitions, invalidations, merge operations and charge
// attribution — depended on the host's goroutine scheduling.  Counters
// fixed by a node's own access stream stayed reproducible; anything
// order-dependent (copying-mode fault counts at P>1, simulated cycles
// through the barrier max) wobbled from run to run.
//
// This package replaces host-order interleaving with a cooperative token:
// at most one node executes simulator code at a time, and the token moves
// only at explicit synchronization points (protocol handler entry, barrier
// entry/exit, simulated locks).  The next node to run is chosen from the
// Ready set by a virtual-time run queue ordered by
//
//	(virtual clock, seeded tie-break hash, node ID, scheduling sequence)
//
// so the entire interleaving is a pure function of (workload, P, seed) and
// any run replays bit-identically — including simulated cycles and
// copying-mode fault counts at P>1.  Seed 0 is the canonical order
// (cycle, node); a non-zero seed mixes a splitmix64 hash of
// (seed, node, sequence) into ties, selecting an alternative — but equally
// deterministic — interleaving, which is what the CI seed sweep exercises.
//
// Two invariants make the schedule host-independent:
//
//  1. Only the running node performs Blocked→Ready transitions (a barrier's
//     last arriver readies its parked siblings; a simulated lock's releaser
//     readies its waiters), so wakeup order never depends on the host.
//  2. Grant channels are buffered, so a node can be granted the token
//     before it has parked; the grant is consumed whenever the goroutine
//     gets around to it.
//
// The scheduler also carries the hooks the bounded model checker
// (internal/check) builds on: a Chooser that overrides the run-queue order
// at every grant, an Observer called while the machine is quiescent at
// each decision point, and per-segment footprints (which block locks a
// node touched between two scheduling points) that enable sleep-set
// pruning.
package sched

import (
	"fmt"
	"sort"
	"sync"
)

// State is a node's scheduling state.
type State uint8

const (
	// Ready: runnable, waiting for the token.
	Ready State = iota
	// Running: holds the token.
	Running
	// Blocked: parked on a simulated event (barrier, simulated lock);
	// another node's SetReady makes it runnable again.
	Blocked
	// Done: the node's body returned or died.
	Done
)

// Candidate is one Ready node offered to the run queue (and, in checker
// mode, to the Chooser).
type Candidate struct {
	// Node is the node ID.
	Node int
	// Clock is the node's virtual time at its last scheduling point.
	Clock int64
	// Seq counts the node's scheduling points so far.
	Seq uint64
}

// Chooser overrides the run-queue policy: at every grant it receives the
// Ready candidates sorted in canonical order and returns the index to run.
// It is called with the scheduler's lock held while every node is
// quiescent; it must not call back into the Scheduler.
type Chooser func(step int, cands []Candidate) int

// Segment is the work one node performed between two scheduling points:
// which grant step started it and which block locks it touched.  Segments
// are recorded only when recording is enabled (checker mode).
type Segment struct {
	// Node ran the segment; Step is the grant that started it.
	Node int
	Step int
	// Blocks lists the block locks acquired during the segment, in order.
	Blocks []uint32
	// Barrier marks that the segment ended at (or crossed) a barrier.
	Barrier bool
}

type nodeState struct {
	state State
	clock int64
	seq   uint64
	gate  chan struct{}
}

// Scheduler serializes one machine run.  Create a fresh Scheduler per run.
type Scheduler struct {
	mu    sync.Mutex
	nodes []nodeState
	seed  uint64

	running  int // node holding the token, -1 if none
	step     int // grants so far
	poisoned bool
	poisonCh chan struct{}

	chooser    Chooser
	observer   func(step int)
	onDeadlock func()

	record bool // immutable after Start
	segs   []Segment
	curSeg int // index into segs of the running segment, -1 if none

	candBuf []Candidate
}

// New creates a scheduler for n nodes with the given tie-break seed.  All
// nodes start Ready at clock 0.  Call Start before launching node
// goroutines.
func New(n int, seed uint64) *Scheduler {
	s := &Scheduler{
		nodes:    make([]nodeState, n),
		seed:     seed,
		running:  -1,
		poisonCh: make(chan struct{}),
		curSeg:   -1,
	}
	for i := range s.nodes {
		s.nodes[i] = nodeState{state: Ready, gate: make(chan struct{}, 1)}
	}
	return s
}

// SetChooser installs a grant-order override (checker mode).  Must precede
// Start.
func (s *Scheduler) SetChooser(c Chooser) { s.chooser = c }

// SetObserver installs a quiescent-point callback invoked (with the
// scheduler lock held) before every grant decision.  Must precede Start.
func (s *Scheduler) SetObserver(f func(step int)) { s.observer = f }

// OnDeadlock installs the callback invoked — on a fresh goroutine, so it
// may take any lock — when no node is Ready or Running but some node is
// still Blocked.  Must precede Start.
func (s *Scheduler) OnDeadlock(f func()) { s.onDeadlock = f }

// EnableRecording turns on segment footprint recording.  Must precede
// Start.
func (s *Scheduler) EnableRecording() { s.record = true }

// Start performs the initial grant.  Call after configuration, before the
// node goroutines call AwaitGrant.
func (s *Scheduler) Start() {
	s.mu.Lock()
	s.dispatch()
	s.mu.Unlock()
}

// AwaitGrant blocks until the node is granted the token (or the scheduler
// is poisoned, in which case it returns immediately and the caller unwinds
// free-running).
func (s *Scheduler) AwaitGrant(node int) {
	select {
	case <-s.nodes[node].gate:
	case <-s.poisonCh:
	}
}

// Yield is a scheduling point: the running node offers the token at the
// given virtual clock and waits to be granted again.
func (s *Scheduler) Yield(node int, clock int64) {
	s.mu.Lock()
	if s.poisoned {
		s.mu.Unlock()
		return
	}
	ns := &s.nodes[node]
	ns.state = Ready
	ns.clock = clock
	ns.seq++
	s.endSegment(node)
	if s.running == node {
		s.running = -1
	}
	s.dispatch()
	s.mu.Unlock()
	s.AwaitGrant(node)
}

// IntentCompute is the one Intent kind still named: a segment that runs
// no protocol handler before its next scheduling point.
//
// Deprecated: intents described segments to the removed time-parallel
// scheduler; the serial token ignores them.  Kept only because the
// perfbench module's grant driver still passes one to YieldIntent.
const IntentCompute = 1

// Intent described a node's next segment to the time-parallel scheduler.
//
// Deprecated: the time-parallel scheduler was removed and the serial
// token ignores intents.  Kept only because the perfbench module's grant
// driver still passes one to YieldIntent.
type Intent struct {
	Kind uint8
}

// YieldIntent is Yield; the intent is ignored.
//
// Deprecated: use Yield.  Kept only because the perfbench module's grant
// driver still calls it.
func (s *Scheduler) YieldIntent(node int, clock int64, _ Intent) { s.Yield(node, clock) }

// Block transitions the running node to Blocked and passes the token on.
// The caller then parks on its own condition (e.g. a barrier's cond) and,
// once woken by a SetReady peer, must call AwaitGrant before touching
// simulator state.  Unlike Yield, Block does not wait here: the caller
// typically holds the mutex guarding its park condition.
func (s *Scheduler) Block(node int) {
	s.mu.Lock()
	if s.poisoned {
		s.mu.Unlock()
		return
	}
	ns := &s.nodes[node]
	ns.state = Blocked
	ns.seq++
	s.endSegment(node)
	if s.running == node {
		s.running = -1
	}
	s.dispatch()
	s.mu.Unlock()
}

// SetReady makes a Blocked node runnable again at its recorded clock.
// Must be called by the running node (invariant 1 in the package comment).
func (s *Scheduler) SetReady(node int) {
	s.mu.Lock()
	s.setReadyLocked(node, s.nodes[node].clock)
	s.mu.Unlock()
}

// SetReadyAt is SetReady with an updated virtual clock (a barrier's last
// arriver readies its siblings at the barrier's resolved time).
func (s *Scheduler) SetReadyAt(node int, clock int64) {
	s.mu.Lock()
	s.setReadyLocked(node, clock)
	s.mu.Unlock()
}

func (s *Scheduler) setReadyLocked(node int, clock int64) {
	if s.poisoned {
		return
	}
	ns := &s.nodes[node]
	if ns.state != Blocked {
		return
	}
	ns.state = Ready
	ns.clock = clock
	ns.seq++
	if s.running == -1 {
		s.dispatch()
	}
}

// Exit marks the node Done and passes the token on.  Called from the run
// loop when a node's body returns or dies (it is safe in any state).
func (s *Scheduler) Exit(node int) {
	s.mu.Lock()
	if s.nodes[node].state == Done {
		s.mu.Unlock()
		return
	}
	s.nodes[node].state = Done
	s.endSegment(node)
	if s.running == node {
		s.running = -1
	}
	if !s.poisoned {
		s.dispatch()
	}
	s.mu.Unlock()
}

// Poison releases every waiter and makes all future scheduling calls
// no-ops: the run is failing and nodes must unwind free-running.  Safe
// from any goroutine, including while holding locks ordered before the
// scheduler's.
func (s *Scheduler) Poison() {
	s.mu.Lock()
	if !s.poisoned {
		s.poisoned = true
		close(s.poisonCh)
	}
	s.mu.Unlock()
}

// Poisoned reports whether the scheduler has been poisoned.
func (s *Scheduler) Poisoned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
}

// NoteLock records a block-lock acquisition in the running segment
// (checker mode; cheap no-op otherwise).
func (s *Scheduler) NoteLock(block uint32) {
	if !s.record {
		return
	}
	s.mu.Lock()
	if s.curSeg >= 0 {
		s.segs[s.curSeg].Blocks = append(s.segs[s.curSeg].Blocks, block)
	}
	s.mu.Unlock()
}

// NoteBarrier marks the running segment as crossing a barrier (checker
// mode; cheap no-op otherwise).
func (s *Scheduler) NoteBarrier() {
	if !s.record {
		return
	}
	s.mu.Lock()
	if s.curSeg >= 0 {
		s.segs[s.curSeg].Barrier = true
	}
	s.mu.Unlock()
}

// Segments returns the recorded segment footprints.  Call only after the
// run completes.
func (s *Scheduler) Segments() []Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segs
}

// Steps returns the number of grants performed.  Call only after the run
// completes.
func (s *Scheduler) Steps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.step
}

// dispatch grants the token to the next node.  Caller holds s.mu, no node
// is Running.  On deadlock (nothing Ready, something Blocked) it fires the
// OnDeadlock callback on a fresh goroutine: the caller may hold a lock —
// the barrier's, say — that the callback needs to abort cleanly.
func (s *Scheduler) dispatch() {
	if s.poisoned || s.running != -1 {
		return
	}
	if s.chooser == nil && s.observer == nil {
		// Fast path: only the run queue's minimum is ever granted, and
		// sorting the whole Ready set dominated grant cost in profiles.
		// A linear Order-minimum scan picks the identical node (Order is
		// a strict total order, so the minimum is unique).
		best := -1
		var bc Candidate
		blocked := false
		for i := range s.nodes {
			switch s.nodes[i].state {
			case Ready:
				c := Candidate{Node: i, Clock: s.nodes[i].clock, Seq: s.nodes[i].seq}
				if best == -1 || Order(s.seed, c, bc) {
					best, bc = i, c
				}
			case Blocked:
				blocked = true
			}
		}
		if best == -1 {
			s.fireDeadlockLocked(blocked)
			return
		}
		s.grant(best)
		return
	}
	cands := s.candBuf[:0]
	blocked := false
	for i := range s.nodes {
		switch s.nodes[i].state {
		case Ready:
			cands = append(cands, Candidate{Node: i, Clock: s.nodes[i].clock, Seq: s.nodes[i].seq})
		case Blocked:
			blocked = true
		}
	}
	s.candBuf = cands
	if len(cands) == 0 {
		s.fireDeadlockLocked(blocked)
		return
	}
	seed := s.seed
	sort.Slice(cands, func(i, j int) bool { return Order(seed, cands[i], cands[j]) })
	if s.observer != nil {
		s.observer(s.step)
	}
	idx := 0
	if s.chooser != nil {
		idx = s.chooser(s.step, cands)
		if idx < 0 || idx >= len(cands) {
			panic(fmt.Sprintf("sched: chooser returned %d of %d candidates", idx, len(cands)))
		}
	}
	s.grant(cands[idx].Node)
}

// grant moves the token to node.  Caller holds s.mu.
func (s *Scheduler) grant(node int) {
	ns := &s.nodes[node]
	ns.state = Running
	s.running = node
	s.step++
	if s.record {
		s.segs = append(s.segs, Segment{Node: node, Step: s.step - 1})
		s.curSeg = len(s.segs) - 1
	}
	ns.gate <- struct{}{} // buffered: never blocks (at most one outstanding grant)
}

// fireDeadlockLocked fires the OnDeadlock callback (once, on a fresh
// goroutine) when nothing is runnable but some node is still Blocked.
func (s *Scheduler) fireDeadlockLocked(blocked bool) {
	if blocked && s.onDeadlock != nil {
		cb := s.onDeadlock
		s.onDeadlock = nil // fire once
		go cb()
	}
}

// endSegment closes the running segment, if any.  Caller holds s.mu.
func (s *Scheduler) endSegment(node int) {
	if s.record && s.curSeg >= 0 && s.segs[s.curSeg].Node == node {
		s.curSeg = -1
	}
}

// Order is the run queue's strict total order over candidates.  The
// exact comparison, which the table test in sched_test.go pins for a
// fixed seed, is:
//
//  1. Clock, ascending: earlier virtual time runs first.
//  2. If the seed is non-zero and the candidates' clocks tie: mix(seed,
//     node, seq), ascending, where mix is the splitmix64 finalizer of
//     seed ^ node*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9.  Seed 0
//     skips this step entirely, giving the canonical (clock, node)
//     order.
//  3. Node ID, ascending (also the hash tie-break, making the order
//     total: node IDs are unique among candidates).
//  4. Seq, ascending — unreachable between two live candidates (a node
//     appears at most once in the Ready set) but kept so Order is total
//     over arbitrary Candidate values, which the fuzz test checks.
func Order(seed uint64, a, b Candidate) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	if seed != 0 {
		ha, hb := mix(seed, a), mix(seed, b)
		if ha != hb {
			return ha < hb
		}
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Seq < b.Seq
}

// mix hashes a candidate under the seed (splitmix64 finalizer, the same
// generator internal/fault uses for its per-node streams).
func mix(seed uint64, c Candidate) uint64 {
	z := seed ^ uint64(c.Node)*0x9e3779b97f4a7c15 ^ c.Seq*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
