// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed host-time budget, checks every output against the
// committed oracle, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of its standard output.
//
//	perfbench --workload paper-grid|wide-fattree|lcmd-kv --seed N --seconds S --trace 0|1
//
// See README.md for why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
}

// layerMetrics are reported by every workload with --trace 1; a layer the
// workload does not exercise reads 0.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"sched.grants", "count"},
		{"sched.handoff_share", "share"},
		{"sched.handoff_ns_per_grant", "ns"},
		{"sched.grant_ns.p32", "ns"},
		{"sched.grant_ns.p256", "ns"},
		{"tempest.accesses", "count"},
		{"tempest.hit_ratio", "ratio"},
		{"tempest.remote_misses", "count"},
		{"tempest.local_fills", "count"},
		{"tempest.barriers", "count"},
		{"tempest.kernel_share", "share"},
		{"tempest.ns_per_access", "ns"},
		{"core.marks", "count"},
		{"core.flushes", "count"},
		{"core.words_flushed", "count"},
		{"core.clean_copies", "count"},
		{"core.reconciles", "count"},
		{"core.fault_ns", "ns"},
		{"core.flush_ns", "ns"},
		{"core.reconcile_share", "share"},
		{"stache.upgrades", "count"},
		{"stache.invalidations", "count"},
		{"stache.fault_ns", "ns"},
		{"net.msgs", "count"},
		{"net.bytes", "bytes"},
		{"net.queue_cycles", "cycles"},
		{"net.max_link_busy", "cycles"},
		{"net.call_ns", "ns"},
		{"net.share", "share"},
		{"nodeset.iter_ns.p32", "ns"},
		{"nodeset.iter_ns.p256", "ns"},
		{"nodeset.add_remove_ns.p32", "ns"},
		{"nodeset.add_remove_ns.p256", "ns"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.alloc_bytes_per_access", "bytes"},
		{"runtime.sched_latency_p50_us", "us"},
	}
	for _, w := range gridWorkloads {
		for _, c := range w.cells {
			for _, sys := range systems {
				defs = append(defs, metricDef{cellMetric(w.name, c.Label(), sys.String()), "s"})
			}
		}
	}
	return append(defs,
		metricDef{"serve.submit_ms_p50", "ms"},
		metricDef{"serve.queue_wait_ms_p50", "ms"},
		metricDef{"serve.run_ms_p50.kv-read", "ms"},
		metricDef{"serve.run_ms_p50.kv-write", "ms"},
		metricDef{"serve.result_ms_p50", "ms"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.hit_latency_p50_ms", "ms"},
		metricDef{"serve.hit_latency_p90_ms", "ms"},
		metricDef{"serve.miss_latency_p50_ms", "ms"},
		metricDef{"serve.miss_latency_p90_ms", "ms"},
		metricDef{"serve.truncated_streams", "count"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"failed_share", "share"},
	)
}

func cellMetric(workload, cell, system string) string {
	return "harness.cell_s." + workload + "." + cell + "." + system
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 50 {
		r.notes = append(r.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper-grid, wide-fattree or lcmd-kv")
	seed := fs.Int64("seed", 1, "workload seed: the schedule seed of the grid workloads, the job pool of lcmd-kv")
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	recordOracle := fs.String("record-oracle", "", "recompute the committed correctness oracle and write it to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordOracle != "" {
		if err := writeOracle(*recordOracle); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	orc, err := loadOracle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var res *result
	var scale int
	if w, ok := gridWorkload(*workload); ok {
		scale = w.scale
		res, err = runGrid(w, *seed, *seconds, *trace == 1, orc)
	} else if *workload == kvName {
		scale = kvScale
		res, err = runKV(*seed, *seconds, *trace == 1, orc)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want paper-grid, wide-fattree or lcmd-kv)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))

	fmt.Printf("host: %s workload=%s scale=%d seed=%d seconds=%d trace=%d\n",
		hostFacts(), *workload, scale, *seed, *seconds, *trace)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	defs := e2eMetrics
	if *trace == 1 {
		defs = layerMetrics()
	}
	rep := report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]reportValue{},
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		rep.Metrics[d.name] = reportValue{Value: res.metrics[d.name], Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-52s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Print(b.String())
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
