package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"lcm/internal/check"
	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

// maxOutputEvents caps the harness output lines mirrored into a job's
// progress stream; past it the stream notes the truncation once (the
// full output still shapes netsweep result bytes).
const maxOutputEvents = 500

// lineEmitter mirrors harness Out lines into "output" progress events.
type lineEmitter struct {
	j     *Job
	buf   bytes.Buffer
	lines int
}

func (le *lineEmitter) Write(p []byte) (int, error) {
	le.buf.Write(p)
	for {
		line, err := le.buf.ReadString('\n')
		if err != nil {
			le.buf.WriteString(line) // incomplete line; keep for next write
			return len(p), nil
		}
		le.lines++
		if le.lines == maxOutputEvents {
			le.j.publish(Event{Event: "output", Line: "... output truncated in progress stream ..."})
		} else if le.lines < maxOutputEvents {
			le.j.publish(Event{Event: "output", Line: strings.TrimRight(line, "\n")})
		}
	}
}

// buildConfig turns a normalized spec into the machine configuration,
// mirroring cmd/lcmbench flag handling exactly so server-mode results
// are byte-identical to process-mode runs of the same tuple.
func buildConfig(sp JobSpec) workloads.Config {
	cfg := workloads.Config{
		P:         sp.P,
		BlockSize: uint32(sp.BlockSize),
		Verify:    sp.Verify,
		SchedSeed: sp.SchedSeed,
	}
	if (sp.Net != "" && sp.Net != "uniform") || sp.LinkBW != 0 || sp.NILat != 0 {
		cfg.Net = &net.Config{Model: sp.Net, CyclesPerByte: sp.LinkBW, NICycles: sp.NILat}
	}
	return cfg
}

// faultPlans resolves a fault-matrix plan name ("" = all defaults).
func faultPlans(name string) ([]harness.FaultPlan, error) {
	all := harness.DefaultFaultPlans()
	if name == "" {
		return all, nil
	}
	for _, p := range all {
		if p.Name == name {
			return []harness.FaultPlan{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown fault_plan %q", name)
}

// checkSystems resolves a model-checker protocol selector.
func checkSystems(name string) ([]cstar.System, error) {
	switch name {
	case "", "all":
		return []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}, nil
	case "copying":
		return []cstar.System{cstar.Copying}, nil
	case "scc":
		return []cstar.System{cstar.LCMscc}, nil
	case "mcc":
		return []cstar.System{cstar.LCMmcc}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (want copying, scc, mcc or all)", name)
}

// verdict is the deterministic result body of faults jobs: the matrix
// configuration and its assertion outcome.  All failure
// text derives from simulation observables, so the bytes are as
// cacheable as a grid cell's.
type verdict struct {
	Schema   string   `json:"schema"`
	Kind     string   `json:"kind"`
	P        int      `json:"p"`
	Scale    int      `json:"scale"`
	Plans    []string `json:"plans"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	OK       bool     `json:"ok"`
	Failures []string `json:"failures,omitempty"`
}

// checkOutcome is one model-checker configuration's result.
type checkOutcome struct {
	System    string `json:"system"`
	Script    string `json:"script"`
	Schedules int    `json:"schedules"`
	Pruned    int    `json:"pruned"`
	Exhausted bool   `json:"exhausted"`
	Violation string `json:"violation,omitempty"`
	Path      []int  `json:"path,omitempty"`
}

// checkReport is the deterministic result body of check jobs.
type checkReport struct {
	Schema   string         `json:"schema"`
	Nodes    int            `json:"nodes"`
	Blocks   int            `json:"blocks"`
	Outcomes []checkOutcome `json:"outcomes"`
	OK       bool           `json:"ok"`
}

func failureLines(err error) []string {
	if err == nil {
		return nil
	}
	return strings.Split(err.Error(), "\n")
}

// execute runs one dequeued job to a terminal state.  It is the queue's
// worker body: the job is already in StateRunning.
func (s *Server) execute(j *Job) {
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	start := time.Now()
	sp := j.Spec

	var out bytes.Buffer
	suite := harness.New(io.MultiWriter(&out, &lineEmitter{j: j}))
	suite.Cfg = buildConfig(sp)
	suite.Scale = sp.Scale
	suite.KVSkew = sp.KVSkew
	suite.KVReshard = sp.KVReshard
	suite.OnProgress = func(p harness.Progress) {
		j.publish(Event{
			Event: "cell", Cell: p.Cell, System: p.System,
			Done: p.Done, Total: p.Total, SimCycles: p.SimCycles,
		})
	}

	var body []byte
	ctype := "application/json"
	var err error

	switch sp.Kind {
	case "grid":
		body, err = s.runGrid(j, suite, sp)
	case "netsweep":
		if err = suite.DefaultNetSweep(); err != nil {
			err = fmt.Errorf("failed runs:\n%w", err)
		}
		body, ctype = out.Bytes(), "text/plain; charset=utf-8"
	case "faults":
		plans, _ := faultPlans(sp.FaultPlan)
		names := make([]string, len(plans))
		for i, p := range plans {
			names[i] = p.Name
		}
		ferr := suite.RunFaults(plans, sp.Seeds)
		body, err = json.MarshalIndent(verdict{
			Schema: "lcmd-faults/1", Kind: sp.Kind, P: sp.P, Scale: sp.Scale,
			Plans: names, Seeds: sp.Seeds, OK: ferr == nil, Failures: failureLines(ferr),
		}, "", "  ")
	case "check":
		body, err = runCheck(sp)
	default:
		err = fmt.Errorf("unknown kind %q", sp.Kind)
	}
	wall := time.Since(start)

	if err != nil {
		s.stats.JobExecuted(sp.Kind, sp.Scheduler, wall.Seconds())
		j.fail(err.Error(), wall)
		return
	}
	s.cache.Put(j.Key, body, ctype, j.ID)
	s.stats.JobExecuted(sp.Kind, sp.Scheduler, wall.Seconds())
	j.finish(body, ctype, "miss", wall)
}

// runGrid executes a grid job's cells, threads the per-record counters
// into the metrics registry, and renders the deterministic BENCH bytes —
// the same bytes `lcmbench -detjson` writes for this tuple.
func (s *Server) runGrid(j *Job, suite *harness.Suite, sp JobSpec) ([]byte, error) {
	cells := harness.GridCells()
	if len(sp.Cells) > 0 {
		cells = cells[:0]
		for _, name := range sp.Cells {
			c, err := harness.ParseCell(name)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	rows, err := suite.RunCells(cells)
	if err != nil {
		return nil, err
	}
	var failures []string
	var samples []RecordSample
	for _, row := range rows {
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
			r, ok := row[sys]
			if !ok {
				continue
			}
			if r.Err != nil {
				failures = append(failures, fmt.Sprintf("%s/%s: %v", r.Label(), r.System, r.Err))
			}
			samples = append(samples, RecordSample{
				Job: j.ID, Workload: r.Workload, Sched: r.Sched,
				System: r.System.String(), SimCycles: r.Cycles, C: r.C,
			})
		}
	}
	s.stats.AddRecords(samples)
	if len(failures) > 0 {
		return nil, fmt.Errorf("failed cells:\n%s", strings.Join(failures, "\n"))
	}
	return harness.MarshalDeterministic(suite.Cfg, suite.Scale, rows)
}

// runCheck explores the model-checker tuple and renders its report.
func runCheck(sp JobSpec) ([]byte, error) {
	systems, _ := checkSystems(sp.Protocol)
	var scripts []check.Script
	for _, sc := range check.Scripts(sp.Nodes, sp.Blocks) {
		if sp.Script == "" || sc.Name == sp.Script {
			scripts = append(scripts, sc)
		}
	}
	if len(scripts) == 0 {
		return nil, fmt.Errorf("no model-check script named %q", sp.Script)
	}
	maxSchedules := sp.MaxSchedules
	if maxSchedules < 0 {
		maxSchedules = 0 // negative requests exhaustion
	}
	report := checkReport{Schema: "lcmd-check/1", Nodes: sp.Nodes, Blocks: sp.Blocks, OK: true}
	for _, sys := range systems {
		for _, sc := range scripts {
			res, err := check.Explore(check.Config{
				System: sys, Nodes: sp.Nodes, Blocks: sp.Blocks,
				Script: sc, MaxSchedules: maxSchedules,
			})
			if err != nil {
				return nil, err
			}
			oc := checkOutcome{
				System: sys.String(), Script: sc.Name,
				Schedules: res.Schedules, Pruned: res.Pruned, Exhausted: res.Exhausted,
			}
			if res.Violation != nil {
				oc.Violation = res.Violation.Err.Error()
				oc.Path = res.Violation.Path
				report.OK = false
			}
			report.Outcomes = append(report.Outcomes, oc)
		}
	}
	return json.MarshalIndent(report, "", "  ")
}
