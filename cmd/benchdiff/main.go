// Command benchdiff compares two BENCH_*.json benchmark trajectory files
// produced by lcmbench -json.  It has two modes:
//
// Regression gate (default): compare wall-clock times record by record
// and fail when the pooled geometric mean of the current/baseline ratios
// regresses by more than -max-regress percent (10 by default).  This is
// the nightly guardrail: simulation observables must match exactly, wall
// time may drift within the budget.
//
//	benchdiff [-max-regress 10] baseline.json current.json
//
// Identity check (-identical): compare every simulation observable of
// each record — workload, sched, system, simulated cycles, misses, clean
// copies, verification status, network message/byte counts, and the
// serving-workload (KV) counters and answer checksum — and fail on any
// difference.  Only host-time fields (wall clock, the file
// timestamp) are excluded: under the deterministic scheduler
// (internal/sched, the only engine) every observable, simulated cycles
// and Copying fault counts included, is a pure function of (workload, P,
// schedule seed) at every P, so two runs of the same configuration must
// be bit-identical with no carve-outs.  Comparing files recorded under
// different schedule seeds (or by an older build's "freerun" mode) is a
// configuration mismatch, reported before any record is compared.
//
//	benchdiff -identical a.json b.json
//
// Speedup gate (-wallgate): print a per-cell wall-clock speedup table
// (baseline over current — above 1.0 means current is faster) next to
// the pooled geomean, and fail when the pooled speedup falls below the
// given floor.  Use it to show what an engine change buys in wall clock:
// compare a BENCH file from the old build against one from the new build
// of the same configuration (check -identical first).
//
//	benchdiff -wallgate 1.0 before.json after.json
//
// Exit status: 0 on pass, 1 on mismatch/regression, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"lcm/internal/harness"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) harness.BenchFile {
	data, err := os.ReadFile(path)
	if err != nil {
		usage("%v", err)
	}
	var bf harness.BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		usage("%s: %v", path, err)
	}
	if len(bf.Records) == 0 {
		usage("%s: no records", path)
	}
	return bf
}

func key(r harness.BenchRecord) string {
	return r.Workload + "/" + r.Sched + "/" + r.System
}

func main() {
	identical := flag.Bool("identical", false, "compare every simulation observable exactly instead of gating wall-clock regression")
	maxRegress := flag.Float64("max-regress", 10, "maximum allowed pooled-geomean wall-clock regression, percent")
	wallGate := flag.Float64("wallgate", 0, "print a per-cell wall-clock speedup table (baseline/current) and fail when the pooled geomean speedup is below this floor (0 = off)")
	flag.Parse()
	if flag.NArg() != 2 {
		usage("usage: benchdiff [-identical | -wallgate MIN | -max-regress PCT] baseline.json current.json")
	}
	a, b := load(flag.Arg(0)), load(flag.Arg(1))

	if a.P != b.P || a.Scale != b.Scale || a.Net != b.Net {
		fail("configuration mismatch: p/scale/net %d/%d/%q vs %d/%d/%q",
			a.P, a.Scale, a.Net, b.P, b.Scale, b.Net)
	}
	if a.Scheduler != b.Scheduler || a.SchedSeed != b.SchedSeed {
		fail("configuration mismatch: scheduler %q seed %d vs %q seed %d (records from different schedules are not comparable)",
			a.Scheduler, a.SchedSeed, b.Scheduler, b.SchedSeed)
	}
	if len(a.Records) != len(b.Records) {
		fail("record count mismatch: %d vs %d", len(a.Records), len(b.Records))
	}

	if *identical {
		bad := 0
		for i := range a.Records {
			ra, rb := a.Records[i], b.Records[i]
			if key(ra) != key(rb) {
				fail("record %d identity mismatch: %s vs %s", i, key(ra), key(rb))
			}
			diff := func(field string, va, vb any) {
				fmt.Fprintf(os.Stderr, "benchdiff: %s: %s drifted: %v vs %v\n", key(ra), field, va, vb)
				bad++
			}
			if ra.SimCycles != rb.SimCycles {
				diff("simcycles", ra.SimCycles, rb.SimCycles)
			}
			if ra.SimMisses != rb.SimMisses {
				diff("simmisses", ra.SimMisses, rb.SimMisses)
			}
			if ra.CleanCopies != rb.CleanCopies {
				diff("cleancopies", ra.CleanCopies, rb.CleanCopies)
			}
			if ra.Verified != rb.Verified {
				diff("verified", ra.Verified, rb.Verified)
			}
			if ra.NetMsgs != rb.NetMsgs {
				diff("net_msgs", ra.NetMsgs, rb.NetMsgs)
			}
			if ra.NetBytes != rb.NetBytes {
				diff("net_bytes", ra.NetBytes, rb.NetBytes)
			}
			if ra.NetQueueCycles != rb.NetQueueCycles {
				diff("net_queue_cycles", ra.NetQueueCycles, rb.NetQueueCycles)
			}
			if ra.MaxLinkBusy != rb.MaxLinkBusy {
				diff("max_link_busy", ra.MaxLinkBusy, rb.MaxLinkBusy)
			}
			if ra.KVOps != rb.KVOps {
				diff("kv_ops", ra.KVOps, rb.KVOps)
			}
			if ra.KVGets != rb.KVGets {
				diff("kv_gets", ra.KVGets, rb.KVGets)
			}
			if ra.KVPuts != rb.KVPuts {
				diff("kv_puts", ra.KVPuts, rb.KVPuts)
			}
			if ra.KVReshards != rb.KVReshards {
				diff("kv_reshards", ra.KVReshards, rb.KVReshards)
			}
			if ra.KVMigratedBlocks != rb.KVMigratedBlocks {
				diff("kv_migrated_blocks", ra.KVMigratedBlocks, rb.KVMigratedBlocks)
			}
			if ra.KVHotShardOps != rb.KVHotShardOps {
				diff("kv_hot_shard_ops", ra.KVHotShardOps, rb.KVHotShardOps)
			}
			if ra.KVAnswer != rb.KVAnswer {
				diff("kv_answer", ra.KVAnswer, rb.KVAnswer)
			}
		}
		if bad > 0 {
			fail("%d deterministic field(s) drifted across %d records", bad, len(a.Records))
		}
		fmt.Printf("benchdiff: identical across %d records\n", len(a.Records))
		return
	}

	if *wallGate > 0 {
		// Speedup table: baseline wall over current wall, per cell.
		var logSum float64
		n := 0
		fmt.Printf("%-40s %12s %12s %8s\n", "cell", "base wall", "cur wall", "speedup")
		for i := range a.Records {
			ra, rb := a.Records[i], b.Records[i]
			if key(ra) != key(rb) {
				fail("record %d identity mismatch: %s vs %s", i, key(ra), key(rb))
			}
			if ra.WallNS <= 0 || rb.WallNS <= 0 {
				continue
			}
			sp := float64(ra.WallNS) / float64(rb.WallNS)
			fmt.Printf("%-40s %11.3fs %11.3fs %7.2fx\n", key(ra),
				float64(ra.WallNS)/1e9, float64(rb.WallNS)/1e9, sp)
			logSum += math.Log(sp)
			n++
		}
		if n == 0 {
			fail("no records carry wall-clock measurements")
		}
		geomean := math.Exp(logSum / float64(n))
		fmt.Printf("pooled geomean speedup %.2fx over %d records (floor %.2fx)\n", geomean, n, *wallGate)
		if geomean < *wallGate {
			fail("pooled speedup %.2fx below floor %.2fx", geomean, *wallGate)
		}
		return
	}

	// Regression gate: pooled geometric mean of per-record wall ratios.
	var logSum float64
	n := 0
	worstKey, worstRatio := "", 0.0
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if key(ra) != key(rb) {
			fail("record %d identity mismatch: %s vs %s", i, key(ra), key(rb))
		}
		if ra.WallNS <= 0 || rb.WallNS <= 0 {
			continue // unmeasured cell; nothing to gate
		}
		ratio := float64(rb.WallNS) / float64(ra.WallNS)
		logSum += math.Log(ratio)
		n++
		if ratio > worstRatio {
			worstKey, worstRatio = key(ra), ratio
		}
	}
	if n == 0 {
		fail("no records carry wall-clock measurements")
	}
	geomean := math.Exp(logSum / float64(n))
	change := (geomean - 1) * 100
	fmt.Printf("benchdiff: pooled geomean wall-clock ratio %.3f (%+.1f%%) over %d records; worst %s at %.3f\n",
		geomean, change, n, worstKey, worstRatio)
	if change > *maxRegress {
		fail("wall-clock regression %.1f%% exceeds budget %.1f%%", change, *maxRegress)
	}
}
