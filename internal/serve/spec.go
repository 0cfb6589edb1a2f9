// Package serve runs the simulator as a long-running service: harness
// campaigns (grid cells, the interconnect sweep, the fault matrix, the
// protocol model checker) become submitted jobs behind a
// bounded-concurrency queue with streaming NDJSON progress, a
// content-addressed result cache keyed on the full deterministic run
// tuple, and a Prometheus-text /metrics surface exporting the per-node
// simulation counters that previously only landed in JSON/CSV files.
//
// Everything the simulator computes is a pure function of the submitted
// tuple (the deterministic scheduler makes even simulated cycles
// replayable), so a repeated submission is served from cache
// bit-identically to the first run — and to a process-mode `lcmbench
// -detjson` run of the same tuple.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"lcm/internal/cost"
	"lcm/internal/harness"
	"lcm/internal/net"
)

// JobSpec is the wire shape of one submitted job: the deterministic run
// tuple plus host-side execution knobs.  The zero value of every field
// means "the default", so a spec with explicit defaults and one that
// omits them normalize to the same tuple and hit the same cache entry.
type JobSpec struct {
	// Kind selects the campaign: "grid" (Table-1 cells), "netsweep"
	// (interconnect sensitivity sweep), "faults" (the fault matrix) or
	// "check" (protocol model checker).
	Kind string `json:"kind"`

	// Cells restricts a grid job to the named cells ("Stencil-static",
	// "Threshold", "KV-read", ...); empty means the full Table-1 grid.
	Cells []string `json:"cells,omitempty"`

	// P is the simulated machine size (default 32, the paper's).
	P int `json:"p,omitempty"`
	// Scale divides the problem sizes (default 1 = paper scale).
	Scale int `json:"scale,omitempty"`
	// BlockSize is the coherence block size in bytes (0 = 32).
	BlockSize int `json:"blocksize,omitempty"`
	// Verify checks results against the sequential references.
	Verify bool `json:"verify,omitempty"`

	// Net selects the interconnect model: "" or "uniform" for the flat
	// historical charges, "fattree" for the CM-5-style tree.  LinkBW and
	// NILat are the fat tree's cycles-per-byte and per-message NI
	// occupancy overrides (0 = model defaults).
	Net    string `json:"net,omitempty"`
	LinkBW int64  `json:"linkbw,omitempty"`
	NILat  int64  `json:"nilat,omitempty"`

	// Scheduler is "" or "det", the deterministic virtual-time scheduler
	// every run uses.  Normalize refuses the removed "freerun" value.
	Scheduler string `json:"scheduler,omitempty"`
	// SchedSeed selects the deterministic schedule.
	SchedSeed uint64 `json:"sched_seed,omitempty"`

	// Par is refused by Normalize when nonzero.
	//
	// Deprecated: time-parallel execution was removed.  The field stays
	// on the wire so old clients get a 400 naming the removal rather
	// than an unknown-field error; zero is omitted from the canonical
	// JSON, so it never enters the cache key.
	Par int `json:"par,omitempty"`

	// KVSkew and KVReshard tune the serving-traffic (KV) cells: the Zipf
	// skew exponent (0 = workload default of 0.99) and the reshard
	// cadence in phases (0 = default, negative = resharding off).  Both
	// change simulation observables and so are part of the deterministic
	// tuple; zero values are omitted from JSON, keeping pre-KV cache keys
	// stable.
	KVSkew    float64 `json:"kv_skew,omitempty"`
	KVReshard int     `json:"kv_reshard,omitempty"`

	// FaultPlan names one fault-matrix plan ("light", "kill-at-barrier",
	// "drop-1pct", ...); empty means every default plan.  Part of the
	// deterministic tuple.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Seeds are the fault-matrix seeds (default [1 2]).
	Seeds []uint64 `json:"seeds,omitempty"`

	// The model-checker tuple ("check" jobs).
	Protocol string `json:"protocol,omitempty"` // copying|scc|mcc|all
	Nodes    int    `json:"nodes,omitempty"`    // 2-3 (default 2)
	Blocks   int    `json:"blocks,omitempty"`   // 2-4 (default 2)
	Script   string `json:"script,omitempty"`   // canned script name ("" = all)
	// MaxSchedules bounds the interleavings explored per configuration
	// (0 = the service default of 5000; negative = exhaust the tree).
	MaxSchedules int `json:"max_schedules,omitempty"`
}

// specSchema versions the cache key; bump when normalization or result
// rendering changes meaning so stale entries cannot be served.
const specSchema = "lcmd/1"

// kindReads lists, by JSON name, the optional fields each kind reads.
// Normalize refuses any other field that is set: it would change the
// cache key without changing the result.  kind, scheduler and par are
// read for every kind.
var kindReads = map[string][]string{
	"grid":     {"cells", "p", "scale", "blocksize", "verify", "net", "linkbw", "nilat", "sched_seed", "kv_skew", "kv_reshard"},
	"netsweep": {"scale", "blocksize", "verify", "sched_seed", "kv_skew", "kv_reshard"},
	"faults":   {"p", "scale", "blocksize", "verify", "net", "linkbw", "nilat", "sched_seed", "fault_plan", "seeds"},
	"check":    {"protocol", "nodes", "blocks", "script", "max_schedules"},
}

// unreadField returns the JSON name of the first field sp sets that its
// kind does not read, or "".
func (sp *JobSpec) unreadField() string {
	v := reflect.ValueOf(*sp)
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		switch {
		case name == "kind" || name == "scheduler" || name == "par":
		case f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0:
		case !slices.Contains(kindReads[sp.Kind], name):
			return name
		}
	}
	return ""
}

// Normalize validates the spec and applies defaults in place, so that
// every field of the result is the value the run will actually use (and
// the cache key is canonical).  A field the kind does not read is
// refused, and only the fields it reads are defaulted.  It returns an
// error suitable for a 400 response.
func (sp *JobSpec) Normalize() error {
	reads, ok := kindReads[sp.Kind]
	if !ok {
		return fmt.Errorf("unknown kind %q (want grid, netsweep, faults or check)", sp.Kind)
	}
	switch sp.Scheduler {
	case "":
		sp.Scheduler = "det"
	case "det":
	case "freerun":
		return fmt.Errorf("scheduler freerun was removed: every run uses the deterministic scheduler (det)")
	default:
		return fmt.Errorf("scheduler must be det, got %q", sp.Scheduler)
	}
	if sp.Par != 0 {
		return fmt.Errorf("par was removed: every run uses the serial deterministic scheduler, got par=%d", sp.Par)
	}
	if f := sp.unreadField(); f != "" {
		return fmt.Errorf("%s jobs do not read field %s", sp.Kind, f)
	}
	if sp.Kind == "check" {
		return sp.normalizeCheck()
	}

	if slices.Contains(reads, "p") && sp.P == 0 {
		sp.P = 32
	}
	if sp.P < 0 {
		return fmt.Errorf("p must be >= 1, got %d", sp.P)
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if sp.Scale < 1 {
		return fmt.Errorf("scale must be >= 1, got %d", sp.Scale)
	}
	if sp.BlockSize != 0 && (sp.BlockSize < 8 || sp.BlockSize&(sp.BlockSize-1) != 0) {
		return fmt.Errorf("blocksize must be a power of two >= 8, got %d", sp.BlockSize)
	}
	if slices.Contains(reads, "net") {
		if sp.Net == "" {
			sp.Net = "uniform"
		}
		if sp.Net != "uniform" || sp.LinkBW != 0 || sp.NILat != 0 {
			cfg := net.Config{Model: sp.Net, CyclesPerByte: sp.LinkBW, NICycles: sp.NILat}
			if _, err := net.New(cfg, sp.P, cost.Default()); err != nil {
				return err
			}
		}
	}
	if sp.KVSkew < 0 {
		return fmt.Errorf("kv_skew must be >= 0, got %v", sp.KVSkew)
	}
	for _, name := range sp.Cells {
		if _, err := harness.ParseCell(name); err != nil {
			return err
		}
	}
	if sp.Kind == "faults" {
		if _, err := faultPlans(sp.FaultPlan); err != nil {
			return err
		}
		if len(sp.Seeds) == 0 {
			sp.Seeds = []uint64{1, 2}
		}
		sp.Verify = true // the matrix verifies every run
	}
	return nil
}

// normalizeCheck validates and defaults the model-checker tuple.
func (sp *JobSpec) normalizeCheck() error {
	if sp.Nodes == 0 {
		sp.Nodes = 2
	}
	if sp.Nodes < 2 || sp.Nodes > 3 {
		return fmt.Errorf("nodes must be 2 or 3, got %d", sp.Nodes)
	}
	if sp.Blocks == 0 {
		sp.Blocks = 2
	}
	if sp.Blocks < 2 || sp.Blocks > 4 {
		return fmt.Errorf("blocks must be 2-4, got %d", sp.Blocks)
	}
	if sp.MaxSchedules == 0 {
		sp.MaxSchedules = 5000
	}
	_, err := checkSystems(sp.Protocol)
	return err
}

// CacheKey returns the content address of the spec's result: the SHA-256
// of the canonical JSON of the normalized tuple.  Every normalized spec's
// result is a pure function of its tuple, so every spec has one.
func (sp JobSpec) CacheKey() string {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a JobSpec holds only plain values; Marshal cannot fail
	}
	sum := sha256.Sum256(append([]byte(specSchema+":"), b...))
	return hex.EncodeToString(sum[:])
}
