package serve

import (
	"encoding/json"
	"testing"

	"lcm/internal/harness"
)

func TestPlanAndProtocolSelectors(t *testing.T) {
	if plans, err := faultPlans(""); err != nil || len(plans) != len(harness.DefaultFaultPlans()) {
		t.Errorf("faultPlans(\"\") = %d plans, %v; want all defaults", len(plans), err)
	}
	for _, name := range []string{"heavy", "dup-storm", "kill-abort"} {
		if plans, err := faultPlans(name); err != nil || len(plans) != 1 || plans[0].Name != name {
			t.Errorf("faultPlans(%s) = %v, %v", name, plans, err)
		}
	}
	if _, err := faultPlans("zap"); err == nil {
		t.Errorf("faultPlans accepted an unknown plan")
	}
	for name, n := range map[string]int{"": 3, "all": 3, "copying": 1, "scc": 1, "mcc": 1} {
		systems, err := checkSystems(name)
		if err != nil || len(systems) != n {
			t.Errorf("checkSystems(%q) = %d systems, %v; want %d", name, len(systems), err, n)
		}
	}
	if _, err := checkSystems("moesi"); err == nil {
		t.Errorf("checkSystems accepted an unknown protocol")
	}
}

// buildConfig must mirror cmd/lcmbench's flag handling: a plain uniform
// tuple leaves Net nil (the bit-exact historical charges path), any
// explicit interconnect knob constructs the model config.
func TestBuildConfigNetSelection(t *testing.T) {
	sp := normalized(t, JobSpec{Kind: "grid", P: 8, Scale: 16})
	if cfg := buildConfig(sp); cfg.Net != nil {
		t.Errorf("uniform default built an explicit net config %+v", cfg.Net)
	}
	sp = normalized(t, JobSpec{Kind: "grid", P: 8, Scale: 16, Net: "fattree", LinkBW: 8, NILat: 100})
	cfg := buildConfig(sp)
	if cfg.Net == nil || cfg.Net.Model != "fattree" || cfg.Net.CyclesPerByte != 8 || cfg.Net.NICycles != 100 {
		t.Errorf("fattree spec built net config %+v", cfg.Net)
	}
}

func TestRunCheckExhaustsAndRejects(t *testing.T) {
	sp := normalized(t, JobSpec{Kind: "check", Protocol: "copying", Script: "pingpong", MaxSchedules: -1})
	body, err := runCheck(sp)
	if err != nil {
		t.Fatalf("runCheck: %v", err)
	}
	var report checkReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(report.Outcomes) != 1 || !report.Outcomes[0].Exhausted || !report.OK {
		t.Errorf("report = %+v, want one exhausted clean outcome", report)
	}

	bad := normalized(t, JobSpec{Kind: "check"})
	bad.Script = "no-such-script" // past Normalize: runCheck must reject
	if _, err := runCheck(bad); err == nil {
		t.Errorf("runCheck accepted an unknown script")
	}
}

func TestFailureLines(t *testing.T) {
	if failureLines(nil) != nil {
		t.Errorf("failureLines(nil) != nil")
	}
	if got := failureLines(errTwoLines{}); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("failureLines = %v, want [a b]", got)
	}
}

type errTwoLines struct{}

func (errTwoLines) Error() string { return "a\nb" }

func TestConstructorClamps(t *testing.T) {
	c := NewCache(0)
	c.Put("k1", []byte("x"), "t", "j")
	c.Put("k2", []byte("y"), "t", "j")
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("NewCache(0) entries = %d, want clamp to 1", st.Entries)
	}
	js := NewJobStats(0)
	js.AddRecords([]RecordSample{{Job: "a"}, {Job: "b"}})
	if samples, _, _, _, _ := js.snapshot(); len(samples) != 1 {
		t.Errorf("NewJobStats(0) retained %d samples, want clamp to 1", len(samples))
	}
	q := NewQueue(0, 0, func(*Job) {})
	if err := q.Submit(newJob("j1", JobSpec{}, "")); err != nil {
		t.Errorf("clamped queue rejected a submission: %v", err)
	}
	q.Drain()
	if err := q.Submit(newJob("j2", JobSpec{}, "")); err != ErrDraining {
		t.Errorf("Submit after Drain = %v, want ErrDraining", err)
	}
	q.Drain() // idempotent
}

func TestNormalizeBoundsChecks(t *testing.T) {
	for _, sp := range []JobSpec{
		{Kind: "grid", P: -1},
		{Kind: "grid", Par: -2},
		{Kind: "grid", Par: 4},
		{Kind: "grid", Scheduler: "freerun"},
		{Kind: "grid", Scheduler: "bogus"},
		{Kind: "check", Blocks: 5},
		{Kind: "check", MaxSchedules: 0, Nodes: 3, Blocks: 4, Protocol: "bogus"},
	} {
		spec := sp
		if err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an out-of-bounds spec", sp)
		}
	}
	ok := JobSpec{Kind: "check"}
	if err := ok.Normalize(); err != nil {
		t.Fatalf("Normalize(check): %v", err)
	}
	if ok.Nodes != 2 || ok.Blocks != 2 || ok.MaxSchedules != 5000 {
		t.Errorf("check defaults = %+v, want nodes=2 blocks=2 max_schedules=5000", ok)
	}
}

// Normalize defaults only the fields a kind reads: a check job gets no
// machine defaults, a net sweep no machine size or interconnect, and a
// fault matrix always verifies.
func TestNormalizeDefaultsOnlyReadFields(t *testing.T) {
	if sp := normalized(t, JobSpec{Kind: "check"}); sp.P != 0 || sp.Scale != 0 || sp.Net != "" || sp.Seeds != nil {
		t.Errorf("check spec gained simulation defaults: %+v", sp)
	}
	if sp := normalized(t, JobSpec{Kind: "netsweep"}); sp.P != 0 || sp.Net != "" || sp.Scale != 1 {
		t.Errorf("netsweep defaults = %+v, want p and net unset, scale 1", sp)
	}
	if sp := normalized(t, JobSpec{Kind: "faults"}); !sp.Verify || sp.P != 32 || len(sp.Seeds) != 2 {
		t.Errorf("faults defaults = %+v, want verify, p=32 and seeds [1 2]", sp)
	}
	if sp := normalized(t, JobSpec{Kind: "grid"}); sp.Verify || sp.P != 32 || sp.Net != "uniform" || sp.Seeds != nil {
		t.Errorf("grid defaults = %+v, want p=32 and net uniform only", sp)
	}
}
