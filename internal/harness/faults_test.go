package harness

import (
	"bytes"
	"strings"
	"testing"

	"lcm/internal/workloads"
)

// chaosPlans are the fault-matrix rows that mix every recoverable
// transfer, message and timing fault, plus the unrecoverable crash.
var chaosPlans = []string{"light", "heavy", "kill-abort"}

// recoveryPlans are the fault-matrix rows that exercise crash recovery,
// re-homing and sustained message loss or duplication.
var recoveryPlans = []string{"kill-at-barrier", "kill-mid-epoch", "kill-rehome", "drop-1pct", "dup-storm"}

// runFaultPlans runs the named default plans through RunFaults at reduced
// scale at P in {1, 4, 8} with two seeds.  RunFaults itself asserts
// answer identity against the sequential oracle, bit-identical replay,
// exact recovery accounting, and the structured failure of the
// unrecoverable row; this only requires that no assertion failed and
// that every workload and plan ran.
func runFaultPlans(t *testing.T, names []string) {
	t.Helper()
	byName := map[string]FaultPlan{}
	for _, plan := range DefaultFaultPlans() {
		byName[plan.Name] = plan
	}
	var plans []FaultPlan
	for _, name := range names {
		plan, ok := byName[name]
		if !ok {
			t.Fatalf("no default fault plan named %q", name)
		}
		plans = append(plans, plan)
	}
	for _, p := range []int{1, 4, 8} {
		if testing.Short() && p != 4 {
			continue
		}
		var buf bytes.Buffer
		s := New(&buf)
		s.Cfg = workloads.Config{P: p}
		s.Scale = 16
		if err := s.RunFaults(plans, []uint64{1, 2}); err != nil {
			t.Fatalf("P=%d fault matrix failed:\n%v\n\noutput:\n%s", p, err, buf.String())
		}
		out := buf.String()
		for _, want := range []string{"Stencil", "Adaptive", "Threshold", "Unstructured"} {
			if !strings.Contains(out, want) {
				t.Fatalf("P=%d fault matrix output missing workload %q:\n%s", p, want, out)
			}
		}
		for _, name := range names {
			if !strings.Contains(out, " "+name+" ") {
				t.Fatalf("P=%d fault matrix output missing plan %q:\n%s", p, name, out)
			}
		}
		if strings.Contains(out, "FAIL") {
			t.Fatalf("P=%d fault matrix output reports failure:\n%s", p, out)
		}
	}
}

// TestChaosCampaign runs the mixed-fault rows and the unrecoverable kill.
func TestChaosCampaign(t *testing.T) {
	runFaultPlans(t, chaosPlans)
}

// TestRecoveryMatrix runs the crash-recovery and message-loss rows.
func TestRecoveryMatrix(t *testing.T) {
	runFaultPlans(t, recoveryPlans)
}

// TestFaultMatrix checks that the two campaigns above together run every
// default plan exactly once, so no row of the matrix goes untested.
func TestFaultMatrix(t *testing.T) {
	seen := map[string]int{}
	for _, name := range append(append([]string{}, chaosPlans...), recoveryPlans...) {
		seen[name]++
	}
	for _, plan := range DefaultFaultPlans() {
		if seen[plan.Name] != 1 {
			t.Errorf("default plan %q is run by %d campaigns, want 1", plan.Name, seen[plan.Name])
		}
		delete(seen, plan.Name)
	}
	for name := range seen {
		t.Errorf("campaign names plan %q, which is not a default plan", name)
	}
}
