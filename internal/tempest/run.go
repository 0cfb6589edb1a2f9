package tempest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"lcm/internal/sched"
)

// This file is the hardened execution core.  Run historically crashed the
// whole process when any node's body panicked, and a dead node left its
// siblings blocked in the barrier forever.  RunErr recovers node panics
// into structured per-node errors, aborts the barrier so every sibling
// unwinds instead of deadlocking, and — when a watchdog is armed — bounds
// the wall-clock cost of a wedged node, returning a diagnostic dump
// instead of hanging.

// ErrDeadlock is the cause a run is aborted with when every live node is
// parked on a simulated event (a barrier, a simulated lock) that no
// runnable node can deliver — a barrier some node exits without
// reaching, say.  Match with errors.Is.
var ErrDeadlock = errors.New("tempest: scheduler deadlock: all live nodes blocked")

// ErrUnresponsive marks a node that neither finished nor died within the
// post-failure grace period (its goroutine is leaked; the machine's state
// must not be trusted afterwards).
var ErrUnresponsive = errors.New("tempest: node unresponsive after run failure")

// NodeError is one node's structured failure.
type NodeError struct {
	Node int
	Err  error
	// Stack is the node goroutine's stack at the point of death (empty
	// for unresponsive nodes).
	Stack string
	// Collateral marks nodes that died only because the barrier was
	// aborted on behalf of another node's failure.
	Collateral bool
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("node %d: %v", e.Node, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Err }

// RunError aggregates every node failure of one Run.
type RunError struct {
	// Nodes holds one entry per failed node, primary failures first.
	Nodes []*NodeError
	// Diagnostics is the per-node machine dump taken when the run
	// failed (clock, counters, tag histogram, last trace events).
	Diagnostics string
}

// First returns the first primary (non-collateral) failure, falling back
// to the first failure of any kind.
func (e *RunError) First() *NodeError {
	for _, ne := range e.Nodes {
		if !ne.Collateral {
			return ne
		}
	}
	if len(e.Nodes) > 0 {
		return e.Nodes[0]
	}
	return nil
}

func (e *RunError) Error() string {
	first := e.First()
	if first == nil {
		return "tempest: run failed"
	}
	collateral := 0
	for _, ne := range e.Nodes {
		if ne.Collateral {
			collateral++
		}
	}
	msg := fmt.Sprintf("tempest: run failed: %v", first)
	if collateral > 0 {
		msg += fmt.Sprintf(" (+%d sibling nodes released by barrier abort)", collateral)
	}
	return msg
}

// Unwrap exposes the first primary failure to errors.Is/As: callers can
// extract the *NodeError itself (errors.As) or keep unwrapping through
// it to the root cause and branch on sentinels like fault.ErrKilled
// (errors.Is).
func (e *RunError) Unwrap() error {
	if first := e.First(); first != nil {
		return first
	}
	return nil
}

// Run executes body on every node (SPMD) and returns when all nodes
// finish.  The machine must be frozen.  If any node fails, Run
// panics with the *RunError that RunErr would return; callers that want
// to handle failure call RunErr instead.
func (m *Machine) Run(body func(n *Node)) {
	if err := m.RunErr(body); err != nil {
		panic(err)
	}
}

// RunErr executes body on every node (SPMD) and returns a structured
// error when any node fails.  Each node runs on its own goroutine, but the
// run's deterministic scheduler lets exactly one execute simulator code at
// a time, so every observable is a pure function of the machine's
// configuration and SchedSeed.
//
// A node "fails" by panicking (a protocol bug, an injected unrecoverable
// fault, or a retry budget running out).  The first failure aborts the
// machine's barrier, so siblings parked there unwind promptly and are
// reported as collateral.  A run in which every live node waits on a
// simulated event that no node can deliver (a barrier some node never
// reaches) aborts the same way, with ErrDeadlock as the cause.  When
// Machine.Watchdog is positive, a barrier round that stalls past the
// bound — a node blocked in host code, outside any scheduling point the
// scheduler can see — is aborted with per-node diagnostics,
// and nodes that still fail to unwind within a grace period are reported
// unresponsive (their goroutines are leaked and the machine is poisoned —
// read nothing further from it).
//
// On failure the machine must be considered poisoned: the barrier stays
// aborted and protocol state may be mid-transition.  Build a fresh
// machine to run again.
func (m *Machine) RunErr(body func(n *Node)) error {
	if !m.frozen {
		panic("tempest: Run before Freeze")
	}
	if m.cfgErr != nil {
		return m.cfgErr
	}
	if m.Watchdog > 0 {
		m.bar.SetWatchdog(m.Watchdog, m.barrierDiagnostics)
	} else {
		m.bar.SetWatchdog(0, nil)
	}
	// Each run gets a fresh deterministic scheduler (the previous run's, if
	// any, is fully drained: RunErr does not return while node goroutines
	// live).  A barrier abort or watchdog stall poisons it so unwinding
	// nodes free-run; a node that exits while a sibling still waits at the
	// barrier is a deadlock the scheduler detects and converts to an abort.
	sc := sched.New(m.P, m.SchedSeed)
	if m.SchedHook != nil {
		m.SchedHook(sc)
	}
	sc.OnDeadlock(func() { m.bar.Abort(ErrDeadlock) })
	m.schedder = sc
	m.bar.setSched(sc)
	sc.Start()

	var (
		mu       sync.Mutex
		nodeErrs = make([]*NodeError, m.P)
		finished = make([]bool, m.P)
		failOnce sync.Once
		failed   = make(chan struct{})
		wg       sync.WaitGroup
	)
	wg.Add(m.P)
	for _, nd := range m.Nodes {
		go func(nd *Node) {
			defer wg.Done()
			defer func() {
				var err error
				if r := recover(); r != nil {
					err = panicError(r)
				}
				mu.Lock()
				finished[nd.ID] = true
				if err != nil {
					nodeErrs[nd.ID] = &NodeError{
						Node:       nd.ID,
						Err:        err,
						Stack:      string(debug.Stack()),
						Collateral: errors.Is(err, ErrAborted),
					}
				}
				mu.Unlock()
				if err != nil {
					// Abort (which poisons the scheduler) before Exit, so
					// the token is never handed onward from a dying run.
					m.bar.Abort(fmt.Errorf("node %d died: %w", nd.ID, err))
					failOnce.Do(func() { close(failed) })
				}
				sc.Exit(nd.ID)
			}()
			sc.AwaitGrant(nd.ID)
			body(nd)
			nd.FoldStolen()
		}(nd)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	hung := false
	select {
	case <-done:
	case <-failed:
		// A node died.  The barrier abort releases parked siblings;
		// give the rest a grace period to unwind before declaring them
		// unresponsive.  Without a watchdog the caller asked for no
		// wall-clock bounds, so wait indefinitely (abort still
		// prevents the barrier deadlock itself).
		if m.Watchdog > 0 {
			grace := 2*m.Watchdog + 500*time.Millisecond
			select {
			case <-done:
			case <-time.After(grace):
				hung = true
			}
		} else {
			<-done
		}
	}

	mu.Lock()
	var errs []*NodeError
	for _, ne := range nodeErrs {
		if ne != nil {
			errs = append(errs, ne)
		}
	}
	if hung {
		for id, fin := range finished {
			if !fin && nodeErrs[id] == nil {
				errs = append(errs, &NodeError{Node: id, Err: ErrUnresponsive})
			}
		}
	}
	mu.Unlock()
	if len(errs) == 0 {
		return nil
	}
	sort.SliceStable(errs, func(i, j int) bool {
		if errs[i].Collateral != errs[j].Collateral {
			return !errs[i].Collateral
		}
		return errs[i].Node < errs[j].Node
	})
	re := &RunError{Nodes: errs}
	if !hung {
		// All node goroutines have exited, so the machine is quiescent
		// and fully readable.
		re.Diagnostics = m.Diagnostics()
	} else if se := new(StallError); errors.As(m.bar.Err(), &se) {
		// Unsafe to touch node state with goroutines leaked; reuse the
		// dump the watchdog took under the barrier lock.
		re.Diagnostics = se.Diagnostics
	}
	return re
}

// panicError converts a recovered panic value into an error.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// Diagnostics renders a per-node dump — clock, key counters, access-tag
// histogram, and the tail of the trace — for failure reports.  Call only
// while the machine is quiescent.
func (m *Machine) Diagnostics() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine: P=%d protocol=%s blocks=%d\n", m.P, m.protocol.Name(), m.AS.NumBlocks())
	for _, nd := range m.Nodes {
		sb.WriteString(m.nodeDiagnostics(nd, true))
	}
	return sb.String()
}

// barrierDiagnostics is the watchdog's stall-time dump.  It runs with the
// barrier lock held: nodes parked at the barrier (present[i]) released
// that lock inside cond.Wait and cannot wake until the abort broadcasts,
// so their state is readable race-free; for absent nodes — the stalled or
// dead ones — only their atomic fields are touched.
func (m *Machine) barrierDiagnostics(present []bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine: P=%d protocol=%s blocks=%d\n", m.P, m.protocol.Name(), m.AS.NumBlocks())
	for _, nd := range m.Nodes {
		if present[nd.ID] {
			sb.WriteString(m.nodeDiagnostics(nd, true))
		} else {
			fmt.Fprintf(&sb, "node %2d: NOT AT BARRIER (stalled or dead); stolen=%d\n",
				nd.ID, nd.stolen.Load())
		}
	}
	return sb.String()
}

// nodeDiagnostics renders one node's state.  The caller must guarantee
// the node is quiescent (machine stopped, or parked under the barrier
// lock the caller holds).
func (m *Machine) nodeDiagnostics(nd *Node, atBarrier bool) string {
	var sb strings.Builder
	var tags [4]int
	for _, l := range nd.lines {
		if l != nil {
			t := l.Tag()
			if t < 4 {
				tags[t]++
			}
		}
	}
	fmt.Fprintf(&sb, "node %2d: clock=%d barriers=%d misses=%d flushes=%d retries=%d tags[inv=%d ro=%d rw=%d priv=%d]\n",
		nd.ID, nd.Clock(), nd.Ctr.Barriers, nd.Ctr.Misses, nd.Ctr.Flushes, nd.Ctr.FaultRetries,
		tags[TagInvalid], tags[TagReadOnly], tags[TagReadWrite], tags[TagPrivate])
	if m.Trace != nil {
		evts := m.Trace.NodeEvents(nd.ID)
		if len(evts) > 0 {
			fmt.Fprintf(&sb, "         last trace: %s\n", evts[len(evts)-1])
		}
	}
	return sb.String()
}
