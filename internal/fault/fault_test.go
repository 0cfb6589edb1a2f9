package fault

import "testing"

// TestStreamsDeterministic: two injectors built from the same plan make
// identical decisions — the property the fault matrix's exact-count
// assertions rest on.
func TestStreamsDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, CorruptPerMil: 100, DropPerMil: 100, DupPerMil: 50, ReorderPerMil: 50,
		SpikePerMil: 50, SpikeCycles: 7, StallPerMil: 30, StallCycles: 9}
	a := NewInjector(4, plan)
	b := NewInjector(4, plan)
	for i := 0; i < 10000; i++ {
		node := i % 4
		if a.CorruptTransfer(node) != b.CorruptTransfer(node) {
			t.Fatalf("CorruptTransfer diverged at step %d", i)
		}
		if a.Deliver(node) != b.Deliver(node) {
			t.Fatalf("Deliver diverged at step %d", i)
		}
	}
	if a.Tally() != b.Tally() {
		t.Fatalf("tallies diverged: %v vs %v", a.Tally(), b.Tally())
	}
	if a.Tally().Total() == 0 {
		t.Fatal("no faults injected at these probabilities; test proves nothing")
	}
}

// TestStreamsDecorrelated: different nodes (and nearby seeds) draw
// different streams.
func TestStreamsDecorrelated(t *testing.T) {
	in := NewInjector(2, Plan{Seed: 1, CorruptPerMil: 500})
	same := 0
	const draws = 1000
	for i := 0; i < draws; i++ {
		if in.CorruptTransfer(0) == in.CorruptTransfer(1) {
			same++
		}
	}
	// Independent fair-ish coins agree ~half the time; identical streams
	// agree always.
	if same > draws*9/10 {
		t.Fatalf("node streams look identical: %d/%d draws agree", same, draws)
	}
}

// TestDeliverDeterministic: the fate sequence a sender draws is a pure
// function of (seed, sender, draw index), independent of what other
// senders draw in between.
func TestDeliverDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropPerMil: 100, DupPerMil: 100, ReorderPerMil: 100}
	a := NewInjector(4, plan)
	b := NewInjector(4, plan)
	var seqA, seqB []Delivery
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Deliver(1))
	}
	for i := 0; i < 200; i++ {
		// Interleave other senders' draws; sender 1's stream must not care.
		b.Deliver(0)
		seqB = append(seqB, b.Deliver(1))
		b.CorruptTransfer(3)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d: %v vs %v under interleaving", i, seqA[i], seqB[i])
		}
	}
	if a.NodeTally(1) != b.NodeTally(1) {
		t.Fatalf("sender tallies diverged: %v vs %v", a.NodeTally(1), b.NodeTally(1))
	}
}

// TestDeliverSeedsDiffer: different seeds inject different patterns.
func TestDeliverSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) []Delivery {
		in := NewInjector(4, Plan{Seed: seed, DropPerMil: 100, DupPerMil: 100, ReorderPerMil: 100})
		var seq []Delivery
		for i := 0; i < 200; i++ {
			seq = append(seq, in.Deliver(1))
		}
		return seq
	}
	a, b := mk(42), mk(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 injected identical delivery patterns")
	}
}

// TestDeliverTallyMatchesDraws: every non-clean fate is tallied, and the
// tally sums across senders.
func TestDeliverTallyMatchesDraws(t *testing.T) {
	in := NewInjector(3, Plan{Seed: 7, DropPerMil: 150, DupPerMil: 150, ReorderPerMil: 150})
	var want Tally
	for i := 0; i < 300; i++ {
		switch in.Deliver(i % 3) {
		case Dropped:
			want.Dropped++
		case Duplicated:
			want.Duplicated++
		case Reordered:
			want.Reordered++
		}
	}
	if got := in.Tally(); got != want {
		t.Fatalf("tally %v, want %v (from draws)", got, want)
	}
	if want.Total() == 0 {
		t.Fatal("450‰ fault rate injected nothing in 300 draws; stream is broken")
	}
	sum := in.NodeTally(0)
	sum.Add(in.NodeTally(1))
	sum.Add(in.NodeTally(2))
	if sum != want {
		t.Fatalf("per-sender tallies sum to %v, want %v", sum, want)
	}
}

// TestDeliverZeroRateDrawsNothing: a plan without delivery-fault rates
// delivers everything, tallies nothing, and leaves the node streams
// untouched — so adding message traffic never moves the plan's other
// decisions.
func TestDeliverZeroRateDrawsNothing(t *testing.T) {
	plan := Plan{Seed: 9, CorruptPerMil: 300}
	if plan.Lossy() {
		t.Fatal("plan without delivery rates reports Lossy")
	}
	a := NewInjector(2, plan)
	b := NewInjector(2, plan)
	for i := 0; i < 100; i++ {
		if d := a.Deliver(i % 2); d != Delivered {
			t.Fatalf("zero delivery rate classified %v", d)
		}
		if a.CorruptTransfer(i%2) != b.CorruptTransfer(i%2) {
			t.Fatalf("Deliver advanced the stream at step %d", i)
		}
	}
	if got := a.Tally(); got.Dropped+got.Duplicated+got.Reordered != 0 {
		t.Fatalf("zero delivery rate tallied %v", got)
	}
}

// TestDeliverCertainDrop: DropPerMil 1000 drops every message.
func TestDeliverCertainDrop(t *testing.T) {
	plan := Plan{Seed: 3, DropPerMil: 1000}
	if !plan.Lossy() {
		t.Fatal("plan with a drop rate does not report Lossy")
	}
	in := NewInjector(2, plan)
	for i := 0; i < 100; i++ {
		if d := in.Deliver(i % 2); d != Dropped {
			t.Fatalf("certain drop delivered %v at draw %d", d, i)
		}
	}
	if got := in.Tally().Dropped; got != 100 {
		t.Fatalf("Dropped = %d, want 100", got)
	}
}

// TestDeliveryString covers the fate names used in reports.
func TestDeliveryString(t *testing.T) {
	for d, want := range map[Delivery]string{
		Delivered: "delivered", Dropped: "dropped",
		Duplicated: "duplicated", Reordered: "reordered", Delivery(9): "Delivery(9)",
	} {
		if d.String() != want {
			t.Errorf("Delivery(%d).String() = %q, want %q", uint8(d), d.String(), want)
		}
	}
}

func TestBackoffExponentialWithCap(t *testing.T) {
	in := NewInjector(1, Plan{BackoffBase: 100, BackoffCap: 3})
	want := []int64{100, 200, 400, 800, 800, 800}
	for i, w := range want {
		if got := in.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	in := NewInjector(1, Plan{})
	if got := in.Backoff(1); got != 3000 {
		t.Fatalf("default Backoff(1) = %d, want 3000", got)
	}
	if in.RetryBudget() != 8 {
		t.Fatalf("default RetryBudget = %d, want 8", in.RetryBudget())
	}
}

// TestChecksumDetectsCorruption: every single-bit flip CorruptBytes makes
// must change the checksum.
func TestChecksumDetectsCorruption(t *testing.T) {
	in := NewInjector(1, Plan{Seed: 7})
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i * 37)
	}
	clean := Checksum(data)
	for i := 0; i < 100; i++ {
		buf := append([]byte(nil), data...)
		in.CorruptBytes(0, buf)
		if Checksum(buf) == clean {
			t.Fatalf("corruption %d not detected by checksum", i)
		}
	}
}

// TestKillGating: the kill fires exactly on the KillAfter-th access fault
// of the designated node and never on others.
func TestKillGating(t *testing.T) {
	in := NewInjector(2, Plan{KillNode: 1, KillAfter: 3})
	for i := 0; i < 10; i++ {
		if in.AccessFault(0) {
			t.Fatalf("kill fired on wrong node at fault %d", i)
		}
	}
	for i := 1; i <= 5; i++ {
		got := in.AccessFault(1)
		if want := i == 3; got != want {
			t.Fatalf("AccessFault(1) at fault %d = %v, want %v", i, got, want)
		}
	}
	if k := in.Tally().Kills; k != 1 {
		t.Fatalf("Kills = %d, want 1", k)
	}
	// KillAfter == 0 disables the kill entirely.
	off := NewInjector(2, Plan{KillNode: 1})
	for i := 0; i < 10; i++ {
		if off.AccessFault(1) {
			t.Fatal("kill fired with KillAfter == 0")
		}
	}
}
