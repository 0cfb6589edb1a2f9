package serve

import (
	"fmt"
	"strings"
	"testing"
)

// normalized returns a normalized copy of sp, failing the test on error.
func normalized(t *testing.T, sp JobSpec) JobSpec {
	t.Helper()
	if err := sp.Normalize(); err != nil {
		t.Fatalf("Normalize(%+v): %v", sp, err)
	}
	return sp
}

func keyOf(t *testing.T, sp JobSpec) string {
	t.Helper()
	return normalized(t, sp).CacheKey()
}

// The cache key is the content address of the full deterministic tuple:
// the same tuple (with or without explicit defaults) maps to the same
// key, and flipping any one of seed, P, net, scheduler seed, block size
// or fault plan changes it.
func TestCacheKeyTupleSensitivity(t *testing.T) {
	base := JobSpec{Kind: "grid", Cells: []string{"Stencil-static"}, P: 8, Scale: 16}

	if got, want := keyOf(t, base), keyOf(t, base); got != want {
		t.Fatalf("same tuple produced different keys: %s vs %s", got, want)
	}
	// Explicit defaults and implicit defaults are the same tuple.
	explicit := base
	explicit.Scheduler = "det"
	explicit.Net = "uniform"
	if keyOf(t, base) != keyOf(t, explicit) {
		t.Errorf("explicit defaults changed the key")
	}

	flips := map[string]JobSpec{}
	f := base
	f.SchedSeed = 42
	flips["sched_seed"] = f
	f = base
	f.P = 16
	flips["p"] = f
	f = base
	f.Net = "fattree"
	flips["net"] = f
	f = base
	f.BlockSize = 64
	flips["blocksize"] = f
	f = base
	f.Scale = 32
	flips["scale"] = f
	f = base
	f.Verify = true
	flips["verify"] = f
	f = base
	f.Cells = []string{"Threshold"}
	flips["cells"] = f
	f = base
	f.Cells = []string{"KV-read"}
	flips["kv cell"] = f
	f = base
	f.KVSkew = 1.2
	flips["kv_skew"] = f
	f = base
	f.KVReshard = -1
	flips["kv_reshard"] = f

	baseKey := keyOf(t, base)
	seen := map[string]string{baseKey: "base"}
	for name, sp := range flips {
		k := keyOf(t, sp)
		if prev, dup := seen[k]; dup {
			t.Errorf("flipping %s collided with %s (key %s)", name, prev, k)
		}
		seen[k] = name
	}

	// Fault plan and matrix seeds are part of the faults tuple.
	rec := JobSpec{Kind: "faults", P: 4, Scale: 16, FaultPlan: "drop-1pct"}
	recFlip := rec
	recFlip.FaultPlan = "dup-storm"
	recSeeds := rec
	recSeeds.Seeds = []uint64{7}
	if keyOf(t, rec) == keyOf(t, recFlip) {
		t.Errorf("flipping fault_plan did not change the key")
	}
	if keyOf(t, rec) == keyOf(t, recSeeds) {
		t.Errorf("flipping fault-matrix seeds did not change the key")
	}
}

// The cache address of a fixed tuple is stable across releases: these
// hex digests were computed before the freerun scheduler and the par knob
// were removed from the service, so results cached then are still found.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   JobSpec
		want string
	}{
		{"grid", JobSpec{Kind: "grid", Cells: []string{"Stencil-static"}, P: 8, Scale: 16, Verify: true, SchedSeed: 3},
			"ae96d0ed7d6aae6655a596747da565d19867b7414381690c3179a745a58a3d8a"},
		{"kv", JobSpec{Kind: "grid", Cells: []string{"KV-read"}, P: 8, Scale: 16, Verify: true, SchedSeed: 2, KVSkew: 1.2, KVReshard: 3},
			"53bc2d8cee003668391fb528886cdc174d6c33d624c8124fcee8b2eca49175ec"},
	} {
		if got := keyOf(t, tc.sp); got != tc.want {
			t.Errorf("%s cache key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	put := func(i int) { c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, "t", "j") }
	put(1)
	put(2)
	if _, _, _, ok := c.Get("k1"); !ok { // k1 now most recent
		t.Fatalf("k1 missing before capacity reached")
	}
	put(3) // evicts k2, the least recently used
	if _, _, _, ok := c.Get("k2"); ok {
		t.Errorf("k2 survived eviction; LRU order wrong")
	}
	if _, _, _, ok := c.Get("k1"); !ok {
		t.Errorf("k1 evicted despite recent use")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss", st)
	}
	if st.Bytes != 2 {
		t.Errorf("stats bytes = %d, want 2", st.Bytes)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	bad := []struct {
		sp   JobSpec
		want string // "" = any error
	}{
		{JobSpec{Kind: "nope"}, ""},
		{JobSpec{Kind: "grid", Cells: []string{"Mandelbrot"}}, ""},
		{JobSpec{Kind: "grid", BlockSize: 48}, ""},
		{JobSpec{Kind: "grid", Scale: -1}, ""},
		{JobSpec{Kind: "grid", Scheduler: "cooperative"}, ""},
		{JobSpec{Kind: "grid", Net: "torus"}, ""},
		{JobSpec{Kind: "grid", FaultPlan: "light"}, "field fault_plan"}, // fault plans are faults-only
		{JobSpec{Kind: "faults", FaultPlan: "nonexistent"}, ""},
		{JobSpec{Kind: "chaos"}, ""},    // merged into faults
		{JobSpec{Kind: "recovery"}, ""}, // merged into faults
		{JobSpec{Kind: "check", Nodes: 9}, ""},
		{JobSpec{Kind: "check", Protocol: "mesi"}, ""},
		{JobSpec{Kind: "grid", KVSkew: -0.5}, ""},
		// Fields a kind never reads would change the cache key without
		// changing the result.  The net sweep sets P and bandwidth itself.
		{JobSpec{Kind: "netsweep", P: 4}, "field p"},
		{JobSpec{Kind: "netsweep", Net: "fattree"}, "field net"},
		{JobSpec{Kind: "netsweep", Net: "uniform"}, "field net"},
		{JobSpec{Kind: "netsweep", LinkBW: 16}, "field linkbw"},
		{JobSpec{Kind: "netsweep", NILat: 200}, "field nilat"},
		{JobSpec{Kind: "netsweep", Cells: []string{"Threshold"}}, "field cells"},
		{JobSpec{Kind: "faults", Cells: []string{"Threshold"}}, "field cells"},
		{JobSpec{Kind: "faults", KVSkew: 1.2}, "field kv_skew"},
		{JobSpec{Kind: "faults", KVReshard: 2}, "field kv_reshard"},
		{JobSpec{Kind: "check", P: 4}, "field p"},
		{JobSpec{Kind: "check", Scale: 16}, "field scale"},
		{JobSpec{Kind: "check", BlockSize: 64}, "field blocksize"},
		{JobSpec{Kind: "check", Verify: true}, "field verify"},
		{JobSpec{Kind: "check", SchedSeed: 3}, "field sched_seed"},
		{JobSpec{Kind: "check", FaultPlan: "light"}, "field fault_plan"},
		{JobSpec{Kind: "grid", Seeds: []uint64{1}}, "field seeds"},
		{JobSpec{Kind: "netsweep", Seeds: []uint64{1}}, "field seeds"},
		{JobSpec{Kind: "grid", Protocol: "scc"}, "field protocol"},
		{JobSpec{Kind: "netsweep", MaxSchedules: 10}, "field max_schedules"},
		{JobSpec{Kind: "faults", Nodes: 2, Blocks: 2}, "field nodes"},
		{JobSpec{Kind: "faults", Script: "pingpong"}, "field script"},
	}
	for _, tc := range bad {
		spec := tc.sp
		err := spec.Normalize()
		if err == nil {
			t.Errorf("Normalize(%+v) accepted a bad spec", tc.sp)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Normalize(%+v) = %q, want an error naming %q", tc.sp, err, tc.want)
		}
	}
}
