package main

import (
	"sync"
	"time"

	"lcm/internal/nodeset"
	"lcm/internal/sched"
)

// Pure drivers of two layers' public APIs, so their per-operation cost is
// tracked apart from any workload.

// grantNS returns host ns per grant of a bare deterministic scheduler with
// p nodes that do nothing but yield at increasing virtual clocks: the
// token handoff alone, with no simulation between grants.
func grantNS(p, grants int) float64 {
	s := sched.New(p, 1)
	per := grants / p
	var wg sync.WaitGroup
	wg.Add(p)
	t0 := time.Now()
	s.Start()
	for i := 0; i < p; i++ {
		go func(node int) {
			defer wg.Done()
			s.AwaitGrant(node)
			clock := int64(0)
			for k := 0; k < per; k++ {
				clock += int64(1 + (node*7+k)%5)
				s.YieldIntent(node, clock, sched.Intent{Kind: sched.IntentCompute})
			}
			s.Exit(node)
		}(i)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(s.Steps())
}

var nodesetSink int

// nodesetIterNS returns host ns to iterate a sharer set holding every
// second node of a p-node machine (the invalidation fan-out loop).
func nodesetIterNS(p, reps int) float64 {
	s := nodeset.NewArena(p - 1).Make()
	for id := 0; id < p; id += 2 {
		s.Add(id)
	}
	sum := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		it := s.Iter()
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			sum += id
		}
	}
	el := time.Since(t0)
	nodesetSink += sum
	return float64(el.Nanoseconds()) / float64(reps)
}

// nodesetAddRemoveNS returns host ns per Add+Remove pair cycling over
// every node ID of a p-node machine (the directory's sharer updates).
func nodesetAddRemoveNS(p, reps int) float64 {
	s := nodeset.NewArena(p - 1).Make()
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		id := r % p
		s.Add(id)
		s.Remove(id)
	}
	el := time.Since(t0)
	nodesetSink += s.Count()
	return float64(el.Nanoseconds()) / float64(reps)
}

// layerDrivers runs every pure driver, each as the median of five
// repetitions, and returns its metrics.
func layerDrivers() map[string]float64 {
	med := func(f func() float64) float64 {
		v := make([]float64, 5)
		for i := range v {
			v[i] = f()
		}
		return median(v)
	}
	return map[string]float64{
		"sched.grant_ns.p32":         med(func() float64 { return grantNS(32, 64000) }),
		"sched.grant_ns.p256":        med(func() float64 { return grantNS(256, 64000) }),
		"nodeset.iter_ns.p32":        med(func() float64 { return nodesetIterNS(32, 2000000) }),
		"nodeset.iter_ns.p256":       med(func() float64 { return nodesetIterNS(256, 500000) }),
		"nodeset.add_remove_ns.p32":  med(func() float64 { return nodesetAddRemoveNS(32, 4000000) }),
		"nodeset.add_remove_ns.p256": med(func() float64 { return nodesetAddRemoveNS(256, 4000000) }),
	}
}
