// Command lcmcheck model-checks the coherence protocols: it enumerates
// the interleavings of small scripted configurations (2-3 nodes, 2
// blocks) under the deterministic scheduler and asserts the safety
// properties — single writer per epoch, directory/tag agreement, no lost
// updates across reconciliation, LCM flush/commit pairing — at every
// scheduling point and at the end of every run (see internal/check).
//
// Usage:
//
//	lcmcheck [-protocol copying|scc|mcc|all] [-nodes N] [-blocks N]
//	         [-script NAME] [-max-schedules N] [-nosleep] [-kill]
//	         [-replay PATH -protocol SYS -script NAME]
//
// -kill injects a recoverable node crash (checkpoint/restart enabled)
// into every explored run, extending the safety guarantee across crash
// recovery: restarts perturb the virtual clocks, so the search also
// covers the interleavings around the crash point.
//
// With no flags it sweeps every canned script for every protocol at 2
// nodes x 2 blocks to exhaustion.  A violation prints the replayable
// decision path and the protocol event trace of the failing run, and the
// exit status is 1; -replay re-executes one such path (canonical choices
// beyond the prefix) and dumps its trace.
//
// Exit status: 0 when every exploration finishes clean, 1 on a
// violation, 2 on usage errors.  An exploration stopped by
// -max-schedules is reported as such but is not a failure; run without
// the bound for an exhaustiveness guarantee.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lcm/internal/check"
	"lcm/internal/cstar"
	"lcm/internal/fault"
)

// killPlan is the canned crash plan behind -kill: node 1 dies at every
// second protocol fault, twice, and restarts from its barrier checkpoint.
func killPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 0x6b111, KillNode: 1, KillAfter: 2, KillCount: 2, KillRecover: true,
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcmcheck: "+format+"\n", args...)
	os.Exit(2)
}

func systems(name string) []cstar.System {
	switch name {
	case "copying":
		return []cstar.System{cstar.Copying}
	case "scc":
		return []cstar.System{cstar.LCMscc}
	case "mcc":
		return []cstar.System{cstar.LCMmcc}
	case "all":
		return []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}
	}
	usage("unknown -protocol %q (want copying, scc, mcc or all)", name)
	return nil
}

func main() {
	protocol := flag.String("protocol", "all", "protocol to check: copying, scc, mcc or all")
	nodes := flag.Int("nodes", 2, "simulated nodes (2-3)")
	blocks := flag.Int("blocks", 2, "coherence blocks in the shared vector")
	scriptName := flag.String("script", "", "check only this canned script (empty = all; see internal/check Scripts)")
	maxSchedules := flag.Int("max-schedules", 0, "bound the interleavings explored per configuration (0 = exhaust the tree)")
	noSleep := flag.Bool("nosleep", false, "disable the sleep-set reduction (slower, fully exhaustive)")
	kill := flag.Bool("kill", false, "inject a recoverable node kill (node 1, every 2nd protocol fault, twice) with checkpoint/restart enabled, model-checking crash recovery across interleavings")
	replay := flag.String("replay", "", "replay one decision path (comma-separated indices) instead of exploring")
	flag.Parse()
	if flag.NArg() != 0 {
		usage("unexpected arguments %v", flag.Args())
	}
	if *nodes < 2 || *nodes > 3 {
		usage("-nodes must be 2 or 3")
	}
	if *blocks < 2 || *blocks > 4 {
		usage("-blocks must be 2-4")
	}

	var scripts []check.Script
	for _, s := range check.Scripts(*nodes, *blocks) {
		if *scriptName == "" || s.Name == *scriptName {
			scripts = append(scripts, s)
		}
	}
	if len(scripts) == 0 {
		usage("no script named %q", *scriptName)
	}

	if *replay != "" {
		path, err := check.ParsePath(*replay)
		if err != nil {
			usage("%v", err)
		}
		syss := systems(*protocol)
		if len(syss) != 1 || len(scripts) != 1 {
			usage("-replay needs a single -protocol and -script")
		}
		cfg := check.Config{System: syss[0], Nodes: *nodes, Blocks: *blocks, Script: scripts[0]}
		if *kill {
			cfg.Faults = killPlan()
		}
		vio, dump, err := check.Replay(cfg, path)
		if err != nil {
			usage("%v", err)
		}
		if vio != nil {
			fmt.Printf("replay %v/%s path %v: VIOLATION\n%v\n%s\n",
				syss[0], scripts[0].Name, path, vio.Err, dump)
			os.Exit(1)
		}
		fmt.Printf("replay %v/%s path %v: clean\n", syss[0], scripts[0].Name, path)
		return
	}

	start := time.Now()
	failed := false
	for _, sys := range systems(*protocol) {
		for _, s := range scripts {
			cfg := check.Config{
				System: sys, Nodes: *nodes, Blocks: *blocks, Script: s,
				MaxSchedules: *maxSchedules, NoSleep: *noSleep,
			}
			if *kill {
				cfg.Faults = killPlan()
			}
			res, err := check.Explore(cfg)
			if err != nil {
				usage("%v", err)
			}
			status := "exhausted"
			if !res.Exhausted {
				status = "stopped at bound"
			}
			fmt.Printf("%-8s %-10s %dn x %db: %6d schedules, %6d pruned, %s\n",
				sys, s.Name, *nodes, *blocks, res.Schedules, res.Pruned, status)
			if res.Violation != nil {
				killFlag := ""
				if *kill {
					killFlag = " -kill"
				}
				fmt.Printf("VIOLATION %v/%s: %v\n  replay: lcmcheck -protocol %s -script %s -nodes %d -blocks %d%s -replay %q\n%s\n",
					sys, s.Name, res.Violation.Err, *protocol, s.Name, *nodes, *blocks,
					killFlag, pathString(res.Violation.Path), res.Violation.Trace)
				failed = true
			}
		}
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}

func pathString(path []int) string {
	s := ""
	for i, d := range path {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(d)
	}
	return s
}
