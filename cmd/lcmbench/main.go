// Command lcmbench regenerates the paper's experiments: Table 1 (cache
// misses and clean copies), Figure 2 (Stencil execution time), Figure 3
// (Adaptive / Threshold / Unstructured execution time), and the Section 7
// ablations (reductions, false sharing, stale data).
//
// By default it runs everything at the paper's parameters (32 processors,
// 32-byte blocks, 1024x1024 Stencil, ...).  Use -scale to shrink the
// problems proportionally for a quick run, e.g. -scale 8.
//
// Usage:
//
//	lcmbench [-scale N] [-p N] [-blocksize N] [-verify] [-table1]
//	         [-cells LIST] [-ablate] [-sweeps] [-net=uniform|fattree]
//	         [-linkbw N] [-nilat N] [-netsweep] [-faults] [-schedseed N]
//	         [-kvskew S] [-kvreshard N]
//
// With no selection flags, the benchmark grid (Table 1 and Figures 2
// and 3, which share one set of runs) and the ablations run; -table1
// runs the grid alone and -ablate the ablations alone.  -cells runs the
// named grid cells instead and prints Table 1 for them; it also selects
// the serving-traffic cells KV-read and KV-write (the sharded key-value
// workload), whose Zipf skew and reshard cadence -kvskew and -kvreshard
// tune as part of the deterministic run tuple.  -sweeps adds the
// extension sweeps (block size, processors, cache capacity, commit
// strategy, interconnect).  -net selects the interconnect model (the
// default uniform model reproduces the historical flat charges
// bit-exactly; fattree adds topology and queueing), and -netsweep runs
// only the contention sensitivity sweep.  Runs are scheduled by the
// deterministic virtual-time scheduler (internal/sched): every
// observable, simulated cycles included, is a pure function of the
// configuration and -schedseed.  -faults runs the fault matrix instead:
// every workload under every memory system under every seeded fault plan
// (corrupted transfers, dropped, duplicated and reordered messages,
// handler spikes, node stalls, node kills restarting from barrier
// checkpoints, kill storms past the restart budget forcing degraded-mode
// re-homing) with seeds 1 and 2.  Each run asserts answer identity
// against the sequential oracle, bit-identical replay, and recovery
// counters matching the injected faults exactly; the unrecoverable
// kill-abort plan must end in a structured failure with diagnostics.
// The exit status reports the verdict.
//
// Runs that fail — an invalid configuration (for example -blocksize
// above the protocol's 256-byte element-tracking limit) or a node error —
// are reported as FAILED lines on stderr and make the exit status 1, with
// or without -verify; so is an ablation whose check fails.  This holds for
// the grid, -sweeps and -netsweep alike.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeFile opens path, calls fn on it, and reports any error.
func writeFile(path string, fn func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the whole program with main's process concerns (args, exit
// status, output streams) made explicit so tests can drive it in
// process.  It returns the exit code: 0 on success, 1 on failed runs or
// verdicts, 2 on unusable flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "divide problem sizes by this factor (1 = paper scale)")
	p := fs.Int("p", 32, "number of simulated processors")
	blockSize := fs.Int("blocksize", 0, "coherence block size in bytes (0 = paper default of 32; power of two, at most 256)")
	verify := fs.Bool("verify", false, "check results against sequential references (slower)")
	table1 := fs.Bool("table1", false, "run only the benchmark grid (Table 1 and Figures 2-3), without the ablations")
	ablate := fs.Bool("ablate", false, "run only the Section 7 ablations")
	faults := fs.Bool("faults", false, "run only the fault matrix (corruption, message drop/duplicate/reorder, spikes, stalls, checkpointed restarts, degraded-mode re-homing, unrecoverable kill)")
	sweeps := fs.Bool("sweeps", false, "also run the extension sweeps (block size, processors, cache capacity, interconnect); heavy at scale 1")
	netModel := fs.String("net", "uniform", "interconnect model: uniform (flat charges, bit-identical to the historical model) or fattree (CM-5-style 4-ary fat tree with link/NI queueing)")
	linkBW := fs.Int64("linkbw", 0, "fattree link serialization in cycles per byte (0 = default; higher = less bandwidth)")
	niLat := fs.Int64("nilat", 0, "fattree network-interface occupancy in cycles per message end (0 = default)")
	netSweep := fs.Bool("netsweep", false, "run only the interconnect sensitivity sweep (P x link bandwidth x system over the fat tree)")
	schedSeed := fs.Uint64("schedseed", 0, "deterministic schedule seed (0 = canonical cycle/node order; other seeds permute same-cycle ties)")
	cells := fs.String("cells", "", "comma-separated grid cells to run instead of the full grid (e.g. Stencil-static,KV-read); implies -table1")
	kvSkew := fs.Float64("kvskew", 0, "KV cells' Zipf skew exponent (0 = workload default of 0.99)")
	kvReshard := fs.Int("kvreshard", 0, "KV cells' reshard cadence in phases (0 = workload default; negative = resharding off)")
	csvPath := fs.String("csv", "", "also write benchmark results as CSV to this file")
	jsonPath := fs.String("json", "", "also write a BENCH_*.json benchmark trajectory record (wall time + simulation observables per cell) to this file")
	detJSONPath := fs.String("detjson", "", "also write the deterministic BENCH_*.json bytes (timestamp zero, wall times masked) to this file; byte-identical across runs of the same tuple and to lcmd server-mode results")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *scale < 1 {
		fmt.Fprintln(stderr, "lcmbench: -scale must be >= 1")
		return 2
	}
	if *kvSkew < 0 {
		fmt.Fprintln(stderr, "lcmbench: -kvskew must be >= 0")
		return 2
	}
	if *blockSize != 0 && (*blockSize < 8 || *blockSize&(*blockSize-1) != 0) {
		// Power-of-two >= 8 is the address-space requirement; sizes
		// above the protocol's element-tracking limit pass through here
		// and fail per cell with a config error (exit 1).
		fmt.Fprintln(stderr, "lcmbench: -blocksize must be a power of two >= 8")
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			err := writeFile(*memProfile, func(f *os.File) error {
				runtime.GC() // settle allocations so the profile shows live heap
				return pprof.WriteHeapProfile(f)
			})
			if err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
			}
		}()
	}
	s := harness.New(stdout)
	s.Cfg = workloads.Config{P: *p, BlockSize: uint32(*blockSize), Verify: *verify, SchedSeed: *schedSeed}
	s.Scale = *scale
	s.KVSkew = *kvSkew
	s.KVReshard = *kvReshard
	if *netModel != "uniform" || *linkBW != 0 || *niLat != 0 {
		netCfg := net.Config{Model: *netModel, CyclesPerByte: *linkBW, NICycles: *niLat}
		if _, err := net.New(netCfg, *p, cost.Default()); err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 2
		}
		s.Cfg.Net = &netCfg
	}

	start := time.Now()
	if *netSweep {
		if err := s.DefaultNetSweep(); err != nil {
			reportFailed(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
		return 0
	}
	if *faults {
		if err := s.RunFaults(harness.DefaultFaultPlans(), []uint64{1, 2}); err != nil {
			fmt.Fprintf(stderr, "lcmbench: fault matrix FAILED:\n%v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "fault matrix passed: answers and replays bit-identical, recovery counters match injected faults, unrecoverable kills reported with diagnostics")
		fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
		return 0
	}
	var cellSpecs []harness.CellSpec
	if *cells != "" {
		for _, name := range strings.Split(*cells, ",") {
			c, err := harness.ParseCell(name)
			if err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 2
			}
			cellSpecs = append(cellSpecs, c)
		}
	}

	all := *cells == "" && !*table1 && !*ablate

	if all || *table1 || len(cellSpecs) > 0 {
		var rows []map[cstar.System]workloads.Result
		if len(cellSpecs) > 0 {
			var err error
			rows, err = s.RunCells(cellSpecs)
			if err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 2
			}
			s.Table1(rows)
		} else {
			rows = s.RunPaper()
		}
		if *csvPath != "" {
			if err := writeFile(*csvPath, func(f *os.File) error { return harness.WriteCSV(f, rows) }); err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
		}
		if *jsonPath != "" {
			if err := writeFile(*jsonPath, func(f *os.File) error { return harness.WriteJSON(f, s.Cfg, s.Scale, rows) }); err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
		}
		if *detJSONPath != "" {
			b, err := harness.MarshalDeterministic(s.Cfg, s.Scale, rows)
			if err == nil {
				err = os.WriteFile(*detJSONPath, b, 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *detJSONPath)
		}
		bad := 0
		for _, row := range rows {
			for _, r := range row {
				if r.Err != nil {
					fmt.Fprintf(stderr, "FAILED %s/%s: %v\n", r.Label(), r.System, r.Err)
					bad++
				}
			}
		}
		if bad > 0 {
			return 1
		}
		if *verify {
			fmt.Fprintln(stdout, "all benchmark results verified against sequential references")
		}
	}
	code := 0
	if all || *ablate {
		if err := s.RunAblations(); err != nil {
			reportFailed(stderr, err)
			code = 1
		}
	}
	if *sweeps {
		if err := s.RunSweeps(); err != nil {
			reportFailed(stderr, err)
			code = 1
		}
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return code
}

// reportFailed prints one FAILED line on w for every error joined into
// err (each names its failed run or check).
func reportFailed(w io.Writer, err error) {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			reportFailed(w, e)
		}
		return
	}
	fmt.Fprintf(w, "FAILED %v\n", err)
}
