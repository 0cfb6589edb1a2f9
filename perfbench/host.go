package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(who, &ru) //nolint:errcheck // fails only for an invalid who
	return ru
}

func userSys(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration { return userSys(rusage(syscall.RUSAGE_SELF)) }

// threadCPUTime returns the calling OS thread's user+sys CPU time; the
// caller keeps its goroutine on the thread with runtime.LockOSThread.
func threadCPUTime() time.Duration { return userSys(rusage(1 /* RUSAGE_THREAD */)) }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a runtime/metrics reading; rtWindows sums the differences
// of reading pairs taken around the measured runs.
type rtSample []metrics.Sample

func readRuntime() rtSample {
	s := rtSample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return s
}

// rtWindows accumulates runtime activity over measured windows only, so
// the collections the benchmark forces between runs are not counted.
type rtWindows struct {
	gcCPU, totalCPU, allocBytes float64
	latCounts                   []uint64
	latBuckets                  []float64
}

func (w *rtWindows) add(a, b rtSample) {
	w.gcCPU += b[0].Value.Float64() - a[0].Value.Float64()
	w.totalCPU += b[1].Value.Float64() - a[1].Value.Float64()
	w.allocBytes += float64(b[2].Value.Uint64() - a[2].Value.Uint64())
	ha, hb := a[3].Value.Float64Histogram(), b[3].Value.Float64Histogram()
	if w.latCounts == nil {
		w.latCounts = make([]uint64, len(hb.Counts))
		w.latBuckets = hb.Buckets
	}
	for i := range w.latCounts {
		w.latCounts[i] += hb.Counts[i] - ha.Counts[i]
	}
}

// gcShare is GC CPU over all CPU in the windows.
func (w *rtWindows) gcShare() float64 {
	if w.totalCPU <= 0 {
		return 0
	}
	return w.gcCPU / w.totalCPU
}

// schedP50us is the median goroutine scheduling latency in the windows,
// in µs, interpolated inside its histogram bucket so it is not quantised
// to bucket boundaries.
func (w *rtWindows) schedP50us() float64 {
	var n uint64
	for _, c := range w.latCounts {
		n += c
	}
	half := float64(n) / 2
	var seen float64
	for i, c := range w.latCounts {
		if c > 0 && seen+float64(c) >= half {
			lo, hi := w.latBuckets[i], w.latBuckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + (half-seen)/float64(c)*(hi-lo)) * 1e6
		}
		seen += float64(c)
	}
	return 0
}

// hostFacts describes the machine a result was measured on.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// median returns the median of v (0 for none).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for none).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
