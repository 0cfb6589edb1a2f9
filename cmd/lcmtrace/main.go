// Command lcmtrace runs one benchmark under one memory system and prints a
// detailed breakdown: per-event-class counts, virtual-time composition,
// per-node statistics, and optionally the tail of the protocol event
// trace.  It is the debugging companion to cmd/lcmbench.
//
// Usage:
//
//	lcmtrace -w stencil|adaptive|threshold|unstructured
//	         [-sys copying|lcm-scc|lcm-mcc] [-sched static|dynamic]
//	         [-p N] [-scale N] [-verify] [-trace N]
//
// Examples:
//
//	lcmtrace -w stencil -sys lcm-mcc -sched dynamic -scale 8
//	lcmtrace -w threshold -sys lcm-scc -trace 40
package main

import (
	"flag"
	"fmt"
	"os"

	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/stats"
	"lcm/internal/trace"
	"lcm/internal/workloads"
)

func main() {
	w := flag.String("w", "stencil", "workload: stencil, adaptive, threshold, unstructured")
	sysName := flag.String("sys", "lcm-mcc", "memory system: copying, lcm-scc, lcm-mcc")
	sched := flag.String("sched", "static", "partitioning: static or dynamic")
	p := flag.Int("p", 32, "simulated processors")
	scale := flag.Int("scale", 8, "divide problem sizes by this factor")
	verify := flag.Bool("verify", false, "check against the sequential reference")
	traceN := flag.Int("trace", 0, "dump the last N protocol events (0 = no trace)")
	flag.Parse()

	var sys cstar.System
	switch *sysName {
	case "copying":
		sys = cstar.Copying
	case "lcm-scc":
		sys = cstar.LCMscc
	case "lcm-mcc":
		sys = cstar.LCMmcc
	default:
		fmt.Fprintf(os.Stderr, "lcmtrace: unknown system %q\n", *sysName)
		os.Exit(2)
	}

	suite := harness.New(os.Stdout)
	suite.Scale = *scale
	cfg := workloads.Config{P: *p, Verify: *verify}
	if *traceN > 0 {
		cfg.TraceCap = *traceN
	}
	suite.Cfg = cfg

	workload := map[string]string{
		"stencil": "Stencil", "adaptive": "Adaptive", "threshold": "Threshold", "unstructured": "Unstructured",
	}[*w]
	if workload == "" {
		fmt.Fprintf(os.Stderr, "lcmtrace: unknown workload %q\n", *w)
		os.Exit(2)
	}
	cell := harness.CellSpec{Workload: workload}
	if workload == "Stencil" || workload == "Adaptive" {
		cell.Sched = *sched
	}
	res, err := suite.Exec([]harness.Run{{Cell: cell, System: sys, Cfg: cfg}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcmtrace:", err)
		os.Exit(2)
	}
	r := res[0]

	fmt.Printf("%s under %s (%s partitioning, P=%d, scale 1/%d)\n\n",
		r.Workload, r.System, *sched, *p, *scale)
	fmt.Printf("simulated time:      %16s cycles\n", stats.GroupInt(r.Cycles))
	fmt.Printf("accesses:            %16s\n", stats.GroupInt(r.C.Hits))
	fmt.Printf("cache misses:        %16s (%s remote, %s local fills)\n",
		stats.GroupInt(r.C.Misses), stats.GroupInt(r.C.RemoteMisses), stats.GroupInt(r.C.LocalFills))
	fmt.Printf("upgrades:            %16s\n", stats.GroupInt(r.C.Upgrades))
	fmt.Printf("invalidations sent:  %16s\n", stats.GroupInt(r.C.InvalidationsSent))
	fmt.Printf("marks:               %16s\n", stats.GroupInt(r.C.Marks))
	fmt.Printf("flushes:             %16s (%s words)\n",
		stats.GroupInt(r.C.Flushes), stats.GroupInt(r.C.WordsFlushed))
	fmt.Printf("explicit copies:     %16s words\n", stats.GroupInt(r.C.CopiedWords))
	fmt.Printf("barriers per node:   %16s\n", stats.GroupInt(r.C.Barriers/int64(*p)))
	fmt.Printf("clean copies:        %16s home / %s local\n",
		stats.GroupInt(r.S.CleanCopiesHome), stats.GroupInt(r.S.CleanCopiesLocal))
	fmt.Printf("blocks reconciled:   %16s\n", stats.GroupInt(r.S.Reconciles))
	fmt.Printf("write conflicts:     %16s\n", stats.GroupInt(r.S.WriteConflicts))
	for k, v := range r.Extra {
		fmt.Printf("%-20s %16.4f\n", k+":", v)
	}
	fmt.Printf("\nper-node distribution:\n")
	fmt.Printf("  clock:  %s\n", r.PerNodeClocks)
	fmt.Printf("  misses: %s\n", r.PerNodeMisses)

	if r.Trace != nil {
		fmt.Printf("\nlast protocol events (merged by virtual time):\n")
		kinds := []trace.Kind{trace.ReadMiss, trace.WriteMiss, trace.Upgrade,
			trace.Mark, trace.Flush, trace.Invalidate, trace.Commit, trace.Conflict}
		fmt.Printf("retained event mix: ")
		for _, k := range kinds {
			if c := r.Trace.CountKind(k); c > 0 {
				fmt.Printf("%s=%d ", k, c)
			}
		}
		fmt.Println()
		fmt.Print(r.Trace.Dump(*traceN))
	}

	if *verify {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "\nVERIFICATION FAILED: %v\n", r.Err)
			os.Exit(1)
		}
		fmt.Println("\nresult verified against the sequential reference")
	}
}
