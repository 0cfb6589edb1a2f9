package tempest

import (
	"errors"
	"testing"

	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/stats"
)

// touchAll makes node n write and read back every word of r, generating
// one access fault per block (and checking the data survives recovery).
func touchAll(t *testing.T, n *Node, r *memsys.Region, words uint64) {
	for w := uint64(0); w < words; w++ {
		a := r.Base + memsys.Addr(w*4)
		v := uint32(w)*2654435761 + uint32(n.ID)
		n.WriteU32(a, v)
		if got := n.ReadU32(a); got != v {
			t.Errorf("node %d word %d = %#x, want %#x (recovery corrupted data)", n.ID, w, got, v)
			return
		}
	}
}

func chaosPlan() fault.Plan {
	return fault.Plan{
		Seed:          0xbeef,
		CorruptPerMil: 300,
		DropPerMil:    300,
		SpikePerMil:   200, SpikeCycles: 2500,
		StallPerMil: 100, StallCycles: 4000,
	}
}

// runFaulted builds a fresh machine, injects plan, and runs touchAll on
// every node, returning the machine and the run error.
func runFaulted(t *testing.T, plan fault.Plan, words uint64) (*Machine, error) {
	t.Helper()
	m, r := newUnfrozenMachine(2, words)
	m.AttachFaults(plan)
	m.Freeze()
	err := m.RunErr(func(n *Node) {
		touchAll(t, n, r, words)
		n.Barrier()
	})
	return m, err
}

// TestFaultRecoveryInvisible: under a plan with every recoverable fault
// kind, the run succeeds, the data is intact, and the machine's recovery
// counters equal the injector's record of what it injected.
func TestFaultRecoveryInvisible(t *testing.T) {
	m, err := runFaulted(t, chaosPlan(), 512)
	if err != nil {
		t.Fatalf("RunErr under recoverable plan: %v", err)
	}
	tally := m.Fault.Tally()
	if tally.Total() == 0 {
		t.Fatal("plan injected nothing; test proves nothing")
	}
	c := m.TotalCounters()
	if c.CorruptedTransfers != tally.Corruptions {
		t.Fatalf("CorruptedTransfers = %d, injected %d", c.CorruptedTransfers, tally.Corruptions)
	}
	if c.Net.Retransmits != tally.Dropped {
		t.Fatalf("Retransmits = %d, dropped %d", c.Net.Retransmits, tally.Dropped)
	}
	if c.OccupancySpikes != tally.Spikes {
		t.Fatalf("OccupancySpikes = %d, injected %d", c.OccupancySpikes, tally.Spikes)
	}
	if c.Stalls != tally.Stalls {
		t.Fatalf("Stalls = %d, injected %d", c.Stalls, tally.Stalls)
	}
	if c.FaultRetries != tally.Corruptions {
		t.Fatalf("FaultRetries = %d, want one re-fetch per corruption (%d)", c.FaultRetries, tally.Corruptions)
	}
	if tally.Stalls > 0 && c.StallCycles != tally.Stalls*4000 {
		t.Fatalf("StallCycles = %d, want %d", c.StallCycles, tally.Stalls*4000)
	}
}

// TestFaultDeterminism: the same plan injects the same faults and charges
// the same recovery work on every run, independent of interleaving.
func TestFaultDeterminism(t *testing.T) {
	var tallies []fault.Tally
	var counters []stats.NodeCounters
	for i := 0; i < 3; i++ {
		m, err := runFaulted(t, chaosPlan(), 256)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		tallies = append(tallies, m.Fault.Tally())
		counters = append(counters, m.TotalCounters())
	}
	for i := 1; i < len(tallies); i++ {
		if tallies[i] != tallies[0] {
			t.Fatalf("run %d tally %v != run 0 tally %v", i, tallies[i], tallies[0])
		}
		if counters[i] != counters[0] {
			t.Fatalf("run %d counters %+v != run 0 %+v", i, counters[i], counters[0])
		}
	}
}

// TestRetryBudgetExhaustion: with every transfer corrupted, re-fetches can
// never succeed and the run must fail with the structured exhaustion
// error instead of looping forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	_, err := runFaulted(t, fault.Plan{Seed: 1, CorruptPerMil: 1000, RetryBudget: 4}, 64)
	if err == nil {
		t.Fatal("run succeeded with 100% corruption")
	}
	if !errors.Is(err, fault.ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted in chain", err)
	}
	var ree *fault.RetryExhaustedError
	if !errors.As(err, &ree) {
		t.Fatalf("err = %v, want *RetryExhaustedError in chain", err)
	}
	if ree.Attempts != 5 {
		t.Fatalf("Attempts = %d, want budget+1 = 5", ree.Attempts)
	}
}

// TestInjectedKillIsStructured: an injected unrecoverable node failure
// surfaces as a RunError naming the killed node, matching ErrKilled.
func TestInjectedKillIsStructured(t *testing.T) {
	_, err := runFaulted(t, fault.Plan{Seed: 2, KillNode: 1, KillAfter: 2}, 64)
	if err == nil {
		t.Fatal("run succeeded despite injected kill")
	}
	if !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled in chain", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if first := re.First(); first == nil || first.Node != 1 {
		t.Fatalf("primary failure = %+v, want node 1", re.First())
	}
}
