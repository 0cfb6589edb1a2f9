package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// oracle is the committed correctness reference: for the grid workloads
// the deterministic BENCH digests of seeds 1..oracleSeeds, for lcmd-kv
// the result-body digest of every tuple a job pool can draw.  Regenerate
// it with --record-oracle after a change that is meant to alter simulated
// results.
type oracle struct {
	Grid map[string]map[string]gridDigests `json:"grid"`
	KV   map[string]string                 `json:"kv"`
}

const oracleSeeds = 10

//go:embed oracle.json
var oracleJSON []byte

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return &o, nil
}

func writeOracle(path string) error {
	o := oracle{Grid: map[string]map[string]gridDigests{}, KV: map[string]string{}}
	for _, w := range gridWorkloads {
		o.Grid[w.name] = map[string]gridDigests{}
		for seed := int64(1); seed <= oracleSeeds; seed++ {
			s := w.suite(seed)
			rows, err := s.RunCells(w.cells)
			if err != nil {
				return err
			}
			for _, row := range rows {
				for _, r := range row {
					if r.Err != nil {
						return fmt.Errorf("%s seed %d %s/%s: %w", w.name, seed, r.Label(), r.System, r.Err)
					}
				}
			}
			d, err := passDigests(s, rows)
			if err != nil {
				return err
			}
			o.Grid[w.name][fmt.Sprint(seed)] = d
		}
	}
	k, err := startServer()
	if err != nil {
		return err
	}
	defer k.stop()
	for _, t := range kvUniverse() {
		js := k.do(t)
		if js.err != nil {
			return fmt.Errorf("%s: %w", t.key(), js.err)
		}
		o.KV[t.key()] = js.digest
	}
	b, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
