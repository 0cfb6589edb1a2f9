package tempest

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// waitArrived polls until n waiters are parked in the barrier.
func waitArrived(t *testing.T, b *Barrier, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		arrived := b.arrived
		b.mu.Unlock()
		if arrived == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters arrived", arrived, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBarrierAbortReleasesWaiters(t *testing.T) {
	b := NewBarrier(3)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(id int) {
			_, err := b.WaitNode(id, 0)
			errs <- err
		}(i)
	}
	waitArrived(t, b, 2)
	cause := errors.New("participant died")
	b.Abort(cause)
	for i := 0; i < 2; i++ {
		err := <-errs
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("released waiter error = %v, want ErrAborted", err)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("abort cause not preserved: %v", err)
		}
	}
	// The barrier stays poisoned: later waits fail fast instead of
	// blocking forever on a dead sibling.
	if _, err := b.WaitNode(2, 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort wait error = %v, want ErrAborted", err)
	}
	if !errors.Is(b.Err(), ErrAborted) {
		t.Fatalf("Err() = %v, want ErrAborted", b.Err())
	}
}

func TestBarrierSingleParticipantMaxClock(t *testing.T) {
	b := NewBarrier(1)
	for round, clock := range []int64{42, 7, 1000} {
		c, err := b.WaitNode(0, clock)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if c != clock {
			// A solo participant's max is its own clock, and the max
			// must reset between rounds (round 1 passes a lower clock).
			t.Fatalf("round %d: clock = %d, want %d", round, c, clock)
		}
	}
}

func TestBarrierReuseAcrossRunPhases(t *testing.T) {
	m, r := newTestMachine(t, 4, 64)
	phase := func() {
		m.Run(func(n *Node) {
			n.WriteU32(r.Base+4*4, uint32(n.ID))
			n.Barrier()
			n.Charge(int64(n.ID) * 100)
			n.Barrier()
		})
	}
	phase()
	phase() // the same machine barrier serves a second Run
	for _, nd := range m.Nodes {
		if nd.Ctr.Barriers != 4 {
			t.Fatalf("node %d barriers = %d, want 4", nd.ID, nd.Ctr.Barriers)
		}
	}
}

// TestRunErrRecoversNodePanic is the regression for the old behaviour
// where a panicking node body crashed the whole process and stranded its
// siblings in the barrier.
func TestRunErrRecoversNodePanic(t *testing.T) {
	m, _ := newTestMachine(t, 4, 64)
	err := m.RunErr(func(n *Node) {
		if n.ID == 2 {
			panic("node body bug")
		}
		n.Barrier()
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("RunErr = %v, want *RunError", err)
	}
	first := re.First()
	if first == nil || first.Node != 2 || first.Collateral {
		t.Fatalf("primary failure = %+v, want non-collateral node 2", first)
	}
	if first.Stack == "" {
		t.Fatal("primary failure has no stack")
	}
	collateral := 0
	for _, ne := range re.Nodes {
		if ne.Collateral {
			collateral++
			if !errors.Is(ne.Err, ErrAborted) {
				t.Fatalf("collateral node %d error = %v, want ErrAborted", ne.Node, ne.Err)
			}
		}
	}
	if collateral != 3 {
		t.Fatalf("collateral failures = %d, want 3 (siblings released by abort)", collateral)
	}
	if !strings.Contains(err.Error(), "sibling nodes released") {
		t.Fatalf("error message does not mention released siblings: %v", err)
	}
	if re.Diagnostics == "" {
		t.Fatal("no diagnostics attached to quiescent failure")
	}
}

// TestRunPanicsWithRunError checks the backward-compatible Run wrapper.
func TestRunPanicsWithRunError(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	defer func() {
		r := recover()
		if _, ok := r.(*RunError); !ok {
			t.Fatalf("Run panicked with %T, want *RunError", r)
		}
	}()
	m.Run(func(n *Node) { panic("boom") })
	t.Fatal("Run returned despite node panic")
}

// TestMissingBarrierArrivalDeadlocks: a node that exits without
// reaching the barrier its sibling waits at leaves no runnable node, so
// the scheduler aborts the run with ErrDeadlock at once — no watchdog
// armed, no wall-clock timer involved.
func TestMissingBarrierArrivalDeadlocks(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	start := time.Now()
	err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Barrier() // node 1 never arrives
		}
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlocked run took %v to abort", elapsed)
	}
	if !errors.Is(err, ErrDeadlock) || !errors.Is(err, ErrAborted) {
		t.Fatalf("RunErr = %v, want a barrier abort caused by ErrDeadlock", err)
	}
	var re *RunError
	if !errors.As(err, &re) || len(re.Nodes) != 1 || re.Nodes[0].Node != 0 || !re.Nodes[0].Collateral {
		t.Fatalf("RunErr = %#v, want exactly node 0 released from the barrier", err)
	}
	if re.Diagnostics == "" {
		t.Fatal("no diagnostics attached to the deadlock failure")
	}
}

// TestWatchdogDetectsBarrierStall: a node that blocks in host code
// holds the scheduler's token without reaching a scheduling point, which
// the scheduler cannot distinguish from a long segment.  Only the
// watchdog bounds it: the barrier round stalls, the parked sibling is
// released with the stall diagnostics, and the blocked node is reported
// unresponsive.
func TestWatchdogDetectsBarrierStall(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	m.Watchdog = 100 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	err := m.RunErr(func(n *Node) {
		if n.ID == 1 {
			<-release // blocked outside the simulator
		}
		n.Barrier()
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalled run took %v; watchdog did not bound it", elapsed)
	}
	if !errors.Is(err, ErrUnresponsive) {
		t.Fatalf("RunErr = %v, want the blocked node reported unresponsive", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("RunErr = %v, want *RunError", err)
	}
	var se *StallError
	for _, ne := range re.Nodes {
		if ne.Node == 0 && !errors.As(ne.Err, &se) {
			t.Fatalf("node 0 error = %v, want *StallError in chain", ne.Err)
		}
	}
	if se == nil {
		t.Fatalf("RunErr = %v, want node 0 released by the stall", err)
	}
	if se.Arrived != 1 || se.N != 2 {
		t.Fatalf("stall = %d/%d arrived, want 1/2", se.Arrived, se.N)
	}
	if !strings.Contains(se.Diagnostics, "NOT AT BARRIER") {
		t.Fatalf("stall diagnostics do not flag the missing node:\n%s", se.Diagnostics)
	}
	if !strings.Contains(se.Diagnostics, "node  0") {
		t.Fatalf("stall diagnostics missing parked node dump:\n%s", se.Diagnostics)
	}
	if re.Diagnostics != se.Diagnostics {
		t.Fatal("RunError does not carry the watchdog's stall dump")
	}
}

// TestRunErrConfigError: a recorded configuration error surfaces from
// RunErr instead of executing the run.
func TestRunErrConfigError(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	bad := errors.New("bad aggregate")
	m.RecordConfigError(bad)
	ran := false
	err := m.RunErr(func(n *Node) { ran = true })
	if !errors.Is(err, bad) {
		t.Fatalf("RunErr = %v, want recorded config error", err)
	}
	if ran {
		t.Fatal("body ran despite config error")
	}
}
