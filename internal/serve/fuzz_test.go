package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeStrict decodes one job spec the way the server does: unknown
// fields are errors.
func decodeStrict(data []byte) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// FuzzNormalize feeds arbitrary bytes through strict JobSpec decoding and
// Normalize.  Normalize must never panic, and every spec it accepts must
// be a fixed point: normalizing it again succeeds and keeps the cache
// key, so a client that echoes a normalized spec back hits the same
// cache entry.  Run with `go test -fuzz=FuzzNormalize ./internal/serve`
// to explore; the seed corpus runs on every ordinary `go test`.
func FuzzNormalize(f *testing.F) {
	seeds := map[string]struct {
		spec   string
		accept bool
	}{
		"grid":     {`{"kind":"grid","cells":["Stencil-static","KV-read"],"p":8,"scale":16,"verify":true,"sched_seed":3}`, true},
		"netsweep": {`{"kind":"netsweep","scale":64}`, true},
		"faults":   {`{"kind":"faults","p":4,"scale":16,"fault_plan":"drop-1pct","seeds":[1,2]}`, true},
		"check":    {`{"kind":"check","protocol":"scc","nodes":3,"blocks":4,"script":"pingpong","max_schedules":-1}`, true},
		"par":      {`{"kind":"grid","par":4}`, false},
		"freerun":  {`{"kind":"grid","scheduler":"freerun"}`, false},
		// The net sweep sets P and bandwidth itself, so it refuses them.
		"netsweep-machine": {`{"kind":"netsweep","p":4,"scale":64,"net":"fattree","linkbw":16,"nilat":200}`, false},
	}
	for name, seed := range seeds {
		sp, err := decodeStrict([]byte(seed.spec))
		if err != nil {
			f.Fatalf("seed %s does not decode: %v", name, err)
		}
		if err := sp.Normalize(); (err == nil) != seed.accept {
			f.Fatalf("seed %s: Normalize error %v, want accept=%v", name, err, seed.accept)
		}
		f.Add([]byte(seed.spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeStrict(data)
		if err != nil {
			return
		}
		// Normalize validates a fat tree by building one, which allocates
		// per node, and P has no upper bound yet: keep the fuzzer's
		// memory small.
		if sp.P > 1<<12 {
			return
		}
		if sp.Normalize() != nil {
			return
		}
		key := sp.CacheKey()
		again := sp
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec %+v refused on renormalization: %v", sp, err)
		}
		if got := again.CacheKey(); got != key {
			t.Fatalf("renormalizing %+v moved the cache key %s -> %s", sp, key, got)
		}
	})
}
