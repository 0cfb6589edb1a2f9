package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/serve"
)

// lcmd-kv drives an in-process lcmd server over loopback as a closed loop:
// kvClients callers that each wait for their result, as CI scripts do.
// Every job is a KV grid job at P=32 with verify on.  The seed draws a
// pool of kvPool tuples from the universe below and submits each twice,
// so half the submissions are cache hits (which skip the simulator) and
// half are misses (which run KV-read, keeping clean copies, or KV-write,
// which marks, flushes and reconciles).  A round is the whole job list
// against a fresh server, so its cache starts empty.
const (
	kvName       = "lcmd-kv"
	kvScale      = 8
	kvP          = 32
	kvClients    = 2
	kvPool       = 12
	kvSchedSeeds = 8
)

var kvSkews = []float64{0.6, 0.99, 1.2}

// kvTuple is one cacheable job: a KV cell, schedule seed and Zipf skew.
type kvTuple struct {
	cell      string
	schedSeed uint64
	skew      float64
}

func (t kvTuple) key() string {
	return fmt.Sprintf("%s/sched_seed=%d/kv_skew=%g", t.cell, t.schedSeed, t.skew)
}

func (t kvTuple) mix() string {
	if t.cell == "KV-read" {
		return "kv-read"
	}
	return "kv-write"
}

// kvUniverse lists every tuple a pool can draw; the oracle holds a digest
// for each.
func kvUniverse() []kvTuple {
	var u []kvTuple
	for _, cell := range []string{"KV-read", "KV-write"} {
		for s := uint64(1); s <= kvSchedSeeds; s++ {
			for _, skew := range kvSkews {
				u = append(u, kvTuple{cell, s, skew})
			}
		}
	}
	return u
}

// kvJob is one submission of a round's list; second submissions of a
// tuple wait until the first one's result is back, as a caller that
// resubmits a tuple does, so they are always cache hits.
type kvJob struct {
	tuple kvTuple
	first int // index of the tuple's first submission, -1 for a first
}

// kvJobs returns the seed's job list.  The pool holds two schedule seeds
// for each (cell, skew) pair, so every pool has the same mix of reads,
// writes and skews.  Its tuples are submitted in a seeded order, and
// each is submitted again two misses later.
func kvJobs(seed int64) []kvJob {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6c636d2d6b76))
	var pool []kvTuple
	for _, cell := range []string{"KV-read", "KV-write"} {
		for _, skew := range kvSkews {
			seeds := rng.Perm(kvSchedSeeds)
			for _, s := range seeds[:kvPool/(2*len(kvSkews))] {
				pool = append(pool, kvTuple{cell, uint64(s + 1), skew})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var jobs []kvJob
	firstAt := make([]int, len(pool))
	for i, t := range pool {
		firstAt[i] = len(jobs)
		jobs = append(jobs, kvJob{t, -1})
		if i >= 2 {
			jobs = append(jobs, kvJob{pool[i-2], firstAt[i-2]})
		}
	}
	for i := len(pool) - 2; i < len(pool); i++ {
		jobs = append(jobs, kvJob{pool[i], firstAt[i]})
	}
	return jobs
}

// kvServer is one in-process lcmd instance on a loopback port.
type kvServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

func startServer() (*kvServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &kvServer{
		srv:    serve.New(serve.Options{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * kvClients}},
	}
	k.hs = &http.Server{Handler: k.srv.Handler()}
	go func() { k.served <- k.hs.Serve(ln) }()
	resp, err := k.client.Get(k.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		k.stop()
		return nil, err
	}
	return k, nil
}

// stop drains the job layer, closes the listener and waits for Serve to
// return.
func (k *kvServer) stop() {
	k.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := k.hs.Shutdown(ctx); err != nil {
		k.hs.Close()
	}
	<-k.served
	k.client.CloseIdleConnections()
}

// jobSample is one submission's outcome and its timeline.
type jobSample struct {
	tuple  kvTuple
	cache  string
	digest string
	err    error

	truncated bool // the progress stream ended before its terminal event

	latency   time.Duration // submit until the result body is received
	submit    time.Duration // POST /jobs round trip
	queueWait time.Duration // accepted until the "started" event (misses)
	run       time.Duration // "started" until the terminal event (misses)
	result    time.Duration // GET /jobs/{id}/result round trip
}

func (k *kvServer) do(t kvTuple) (js jobSample) {
	js.tuple = t
	spec, err := json.Marshal(map[string]any{
		"kind": "grid", "cells": []string{t.cell}, "p": kvP, "scale": kvScale,
		"verify": true, "sched_seed": t.schedSeed, "kv_skew": t.skew,
	})
	if err != nil {
		js.err = err
		return js
	}
	t0 := time.Now()
	resp, err := k.client.Post(k.base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		js.err = err
		return js
	}
	var sub struct {
		ID    string `json:"id"`
		Cache string `json:"cache"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit refused: %s %s", resp.Status, sub.Error)
	}
	if err != nil {
		js.err = err
		return js
	}
	tSub := time.Now()
	js.submit, js.cache = tSub.Sub(t0), sub.Cache

	if sub.Cache != "hit" {
		tStart, tEnd, err := k.follow(sub.ID)
		if errors.Is(err, errTruncated) {
			// The job is terminal; GET /result below decides whether it
			// succeeded.
			js.truncated, err = true, nil
		}
		if err != nil {
			js.err = err
			return js
		}
		js.queueWait, js.run = tStart.Sub(tSub), tEnd.Sub(tStart)
	}
	tReq := time.Now()
	resp, err = k.client.Get(k.base + "/jobs/" + sub.ID + "/result")
	if err != nil {
		js.err = err
		return js
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s", resp.Status)
	}
	if err != nil {
		js.err = err
		return js
	}
	tRes := time.Now()
	js.result, js.latency = tRes.Sub(tReq), tRes.Sub(t0)
	js.digest = digest(body)
	return js
}

// errTruncated reports a progress stream that ended without its terminal
// event.  lcmd ends a stream once the job's state is terminal, and
// Job.terminate sets that state before it publishes the terminal event, so
// a reader can see the state in between and stop one event short.  The
// job itself is terminal and its outcome is read from /result.
var errTruncated = errors.New("progress stream ended without a terminal event")

// follow reads the job's progress stream and returns when it saw the
// "started" and terminal events.
func (k *kvServer) follow(id string) (tStart, tEnd time.Time, err error) {
	resp, err := k.client.Get(k.base + "/jobs/" + id + "/progress")
	if err != nil {
		return tStart, tEnd, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return tStart, tEnd, fmt.Errorf("progress: %w", err)
		}
		switch ev.Event {
		case "started":
			tStart = time.Now()
		case "done":
			return tStart, time.Now(), nil
		case "failed", "cancelled":
			return tStart, tEnd, fmt.Errorf("job %s %s: %s%s", id, ev.Event, ev.Error, ev.Reason)
		}
	}
	if err := sc.Err(); err != nil {
		return tStart, tEnd, err
	}
	return tStart, time.Now(), errTruncated
}

// kvRound runs the job list against a fresh server, adding the round's
// runtime activity to rt.
func kvRound(jobs []kvJob, rt *rtWindows) (samples []jobSample, setup, wall, cpu time.Duration, err error) {
	runtime.GC() // start every round from a settled heap
	rt0 := readRuntime()
	t0 := time.Now()
	k, err := startServer()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	setup = time.Since(t0)
	samples = make([]jobSample, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	c0, w0 := cpuTime(), time.Now()
	wg.Add(kvClients)
	for c := 0; c < kvClients; c++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				if f := jobs[i].first; f >= 0 {
					<-done[f]
				}
				samples[i] = k.do(jobs[i].tuple)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(w0), cpuTime()-c0
	rt.add(rt0, readRuntime())
	k.stop()
	return samples, setup, wall, cpu, nil
}

// checkRound counts each failed job: refused, failed, a resubmission that
// missed the cache, or a body that differs from the oracle's digest for
// its tuple or, for a hit, from the body its miss returned earlier in the
// round.
func checkRound(res *result, jobs []kvJob, samples []jobSample, orc *oracle) {
	missBody := map[string]string{}
	for _, s := range samples {
		if s.err == nil && s.cache == "miss" {
			missBody[s.tuple.key()] = s.digest
		}
	}
	for i, s := range samples {
		key := s.tuple.key()
		want, ok := orc.KV[key]
		switch {
		case s.err != nil:
			res.fail("%s %s: %v", kvName, key, s.err)
		case s.cache != "hit" && s.cache != "miss":
			res.fail("%s %s: cache status %q", kvName, key, s.cache)
		case jobs[i].first >= 0 && s.cache != "hit":
			res.fail("%s %s: resubmitted after its result was back, but missed the cache", kvName, key)
		case !ok:
			res.fail("%s %s: no oracle digest", kvName, key)
		case s.digest != want:
			res.fail("%s %s (%s): body digest %s, want %s", kvName, key, s.cache, s.digest, want)
		case s.cache == "hit" && s.digest != missBody[key]:
			res.fail("%s %s: hit body differs from the miss body", kvName, key)
		}
	}
}

func runKV(seed int64, seconds int, trace bool, orc *oracle) (*result, error) {
	res := newResult()
	jobs := kvJobs(seed)
	var setups, walls, cpus []float64
	var hitLat, missLat, submit, queueWait, result []float64
	runMS := map[string][]float64{}
	hits, rounds, truncated := 0, 0, 0
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var rt rtWindows
	start := time.Now()
	for rounds == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		samples, setup, wall, cpu, err := kvRound(jobs, &rt)
		if err != nil {
			return nil, err
		}
		rounds++
		setups = append(setups, setup.Seconds())
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		res.attempted += len(samples)
		checkRound(res, jobs, samples, orc)
		for _, s := range samples {
			if s.truncated {
				truncated++
			}
			if s.err != nil {
				continue
			}
			submit = append(submit, ms(s.submit))
			result = append(result, ms(s.result))
			if s.cache == "hit" {
				hits++
				hitLat = append(hitLat, ms(s.latency))
				continue
			}
			missLat = append(missLat, ms(s.latency))
			queueWait = append(queueWait, ms(s.queueWait))
			runMS[s.tuple.mix()] = append(runMS[s.tuple.mix()], ms(s.run))
		}
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	m["cpu_s"] = median(cpus)
	m["jobs_per_s"] = float64(len(jobs)) / m["wall_s"]
	res.note("rounds=%d jobs=%d hits=%d (share %.3f, %d beyond p90) misses=%d (%d beyond p90)",
		rounds, res.attempted, len(hitLat), float64(hits)/float64(max(res.attempted, 1)), len(hitLat)/10, len(missLat), len(missLat)/10)
	if truncated > 0 {
		res.note("serve: %d progress streams ended without their terminal event (an lcmd race: a job turns terminal before its terminal event is published); their jobs were judged by /result", truncated)
	}
	m["serve.truncated_streams"] = float64(truncated)
	if !trace {
		return res, nil
	}
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.queue_wait_ms_p50"] = median(queueWait)
	m["serve.run_ms_p50.kv-read"] = median(runMS["kv-read"])
	m["serve.run_ms_p50.kv-write"] = median(runMS["kv-write"])
	m["serve.result_ms_p50"] = median(result)
	m["serve.cache_hit_ratio"] = float64(hits) / float64(max(res.attempted, 1))
	m["serve.hit_latency_p50_ms"] = quantile(hitLat, 0.5)
	m["serve.hit_latency_p90_ms"] = quantile(hitLat, 0.9)
	m["serve.miss_latency_p50_ms"] = quantile(missLat, 0.5)
	m["serve.miss_latency_p90_ms"] = quantile(missLat, 0.9)
	m["runtime.gc_cpu_share"] = rt.gcShare()
	m["runtime.sched_latency_p50_us"] = rt.schedP50us()
	for k, v := range layerDrivers() {
		m[k] = v
	}
	return res, nil
}
