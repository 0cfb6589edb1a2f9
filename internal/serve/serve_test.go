package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lcm/internal/harness"
	"lcm/internal/workloads"
)

// smallGrid is the cheap e2e tuple: one cell, tiny machine, tiny problem.
func smallGrid() JobSpec {
	return JobSpec{Kind: "grid", Cells: []string{"Stencil-static"}, P: 4, Scale: 64}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, sp JobSpec) (int, submitResponse) {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp.StatusCode, sr
}

// progress reads the job's whole NDJSON stream (blocks until terminal).
func progress(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/progress")
	if err != nil {
		t.Fatalf("GET progress: %v", err)
	}
	defer resp.Body.Close()
	var evs []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("decode progress event: %v", err)
		}
		evs = append(evs, ev)
	}
}

func result(t *testing.T, ts *httptest.Server, id string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// A grid job run through the server must produce byte-for-byte the same
// deterministic BENCH JSON as running the harness in process — the
// server is a delivery mechanism, not a different simulator.
func TestGridJobMatchesProcessModeBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, sr := submit(t, ts, smallGrid())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if sr.Cache != "miss" || sr.Key == "" {
		t.Fatalf("submit response = %+v, want cache=miss with a key", sr)
	}

	evs := progress(t, ts, sr.ID)
	var kinds []string
	cellEvents := 0
	for _, ev := range evs {
		kinds = append(kinds, ev.Event)
		if ev.Event == "cell" {
			cellEvents++
			if ev.SimCycles <= 0 || ev.Total != 3 || ev.Done < 1 || ev.Done > 3 {
				t.Errorf("bad cell event: %+v", ev)
			}
		}
	}
	if cellEvents != 3 { // one per memory system
		t.Errorf("cell events = %d (%v), want 3", cellEvents, kinds)
	}
	last := evs[len(evs)-1]
	if last.Event != "done" || last.Cache != "miss" {
		t.Fatalf("terminal event = %+v, want done/miss", last)
	}

	code, hdr, body := result(t, ts, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}
	if hc := hdr.Get("X-Lcmd-Cache"); hc != "miss" {
		t.Errorf("X-Lcmd-Cache = %q, want miss", hc)
	}

	// In-process oracle: the same tuple through the harness library.
	suite := harness.New(io.Discard)
	suite.Cfg = workloads.Config{P: 4}
	suite.Scale = 64
	rows, err := suite.RunCells([]harness.CellSpec{{Workload: "Stencil", Sched: "static"}})
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	want, err := harness.MarshalDeterministic(suite.Cfg, suite.Scale, rows)
	if err != nil {
		t.Fatalf("MarshalDeterministic: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("server-mode bytes differ from process-mode bytes:\nserver: %s\nprocess: %s", body, want)
	}
}

// A KV serving-cell job through the server must also match process-mode
// bytes, with the KV tuning knobs threaded through the suite exactly as
// cmd/lcmbench threads its flags.
func TestKVGridJobMatchesProcessModeBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{Kind: "grid", Cells: []string{"KV-read"}, P: 8, Scale: 16,
		Verify: true, KVSkew: 1.2, KVReshard: 2}
	code, sr := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	progress(t, ts, sr.ID)
	code, _, body := result(t, ts, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}

	suite := harness.New(io.Discard)
	suite.Cfg = workloads.Config{P: 8, Verify: true}
	suite.Scale = 16
	suite.KVSkew = 1.2
	suite.KVReshard = 2
	rows, err := suite.RunCells([]harness.CellSpec{{Workload: "KV", Sched: "read"}})
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	want, err := harness.MarshalDeterministic(suite.Cfg, suite.Scale, rows)
	if err != nil {
		t.Fatalf("MarshalDeterministic: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("KV server-mode bytes differ from process-mode bytes:\nserver: %s\nprocess: %s", body, want)
	}
	var bf harness.BenchFile
	if err := json.Unmarshal(body, &bf); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	for _, rec := range bf.Records {
		if rec.KVOps <= 0 || rec.KVAnswer == 0 || !rec.Verified {
			t.Errorf("record missing KV observables: %+v", rec)
		}
	}
}

// A repeated submission of the same tuple is served from the content-
// addressed cache, bit-identically, without consuming a queue slot.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, first := submit(t, ts, smallGrid())
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	progress(t, ts, first.ID) // wait for completion
	_, _, firstBody := result(t, ts, first.ID)

	code, second := submit(t, ts, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("second submit = %d, want 200 (cache hit)", code)
	}
	if second.Cache != "hit" {
		t.Fatalf("second submit cache = %q, want hit", second.Cache)
	}
	if second.Key != first.Key {
		t.Errorf("same tuple produced different keys: %s vs %s", second.Key, first.Key)
	}
	code, hdr, secondBody := result(t, ts, second.ID)
	if code != http.StatusOK {
		t.Fatalf("cached result = %d", code)
	}
	if hc := hdr.Get("X-Lcmd-Cache"); hc != "hit" {
		t.Errorf("X-Lcmd-Cache = %q, want hit", hc)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("cached bytes differ from the fresh run's bytes")
	}
	// The hit's event log terminates immediately: queued -> done(hit).
	evs := progress(t, ts, second.ID)
	if last := evs[len(evs)-1]; last.Event != "done" || last.Cache != "hit" {
		t.Errorf("cached job terminal event = %+v, want done/hit", last)
	}

	// Flipping the schedule seed is a different tuple: a miss that runs.
	flipped := smallGrid()
	flipped.SchedSeed = 1
	code, third := submit(t, ts, flipped)
	if code != http.StatusAccepted || third.Cache != "miss" {
		t.Fatalf("flipped-seed submit = %d %+v, want 202/miss", code, third)
	}
	if third.Key == first.Key {
		t.Errorf("flipping sched_seed kept the cache key")
	}
	progress(t, ts, third.ID)
	_, _, thirdBody := result(t, ts, third.ID)
	if bytes.Equal(thirdBody, firstBody) {
		t.Errorf("different sched_seed produced identical result bytes; seed not threaded through")
	}
}

// The /metrics surface must agree with the result bytes: the per-record
// tempest and interconnect counters exported for a job are the same
// numbers its BENCH JSON carries.
func TestMetricsMatchResultJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, sr := submit(t, ts, smallGrid())
	progress(t, ts, sr.ID)
	_, _, body := result(t, ts, sr.ID)

	var bf harness.BenchFile
	if err := json.Unmarshal(body, &bf); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if len(bf.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(bf.Records))
	}

	code, scrape := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	text := string(scrape)
	for _, r := range bf.Records {
		labels := fmt.Sprintf(`{job="%s",workload="%s",sched="%s",system="%s"}`, sr.ID, r.Workload, r.Sched, r.System)
		for _, want := range []string{
			fmt.Sprintf("lcmd_tempest_simcycles%s %d", labels, r.SimCycles),
			fmt.Sprintf("lcmd_tempest_simmisses%s %d", labels, r.SimMisses),
			fmt.Sprintf("lcmd_net_msgs%s %d", labels, r.NetMsgs),
			fmt.Sprintf("lcmd_net_bytes%s %d", labels, r.NetBytes),
		} {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	for _, want := range []string{
		"# TYPE lcmd_tempest_simcycles gauge",
		"# TYPE lcmd_jobs_executed_total counter",
		`lcmd_jobs_executed_total{kind="grid"} 1`,
		`lcmd_sched_jobs_total{scheduler="det"} 1`,
		`lcmd_jobs_total{state="done"} 1`,
		"lcmd_draining 0",
		"lcmd_job_wall_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One HELP/TYPE header per name, even with three records exported.
	if n := strings.Count(text, "# TYPE lcmd_tempest_simcycles "); n != 1 {
		t.Errorf("lcmd_tempest_simcycles TYPE headers = %d, want 1", n)
	}
}

// Graceful drain: queued-but-unstarted jobs end with a structured
// 503-style terminal progress event instead of leaving clients hanging,
// while the running job finishes normally.
func TestDrainCancelsQueuedJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.beforeRun = func(j *Job) {
		started <- j.ID
		<-release
	}

	_, running := submit(t, ts, smallGrid())
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never started")
	}
	queued := smallGrid()
	queued.SchedSeed = 99 // distinct tuple so it cannot be served from cache
	code, waiting := submit(t, ts, queued)
	if code != http.StatusAccepted || waiting.State != StateQueued {
		t.Fatalf("second submit = %d state=%s, want 202 queued", code, waiting.State)
	}

	// Subscribe to the queued job's stream before draining: the drain
	// must terminate this live stream, not just future subscribers.
	streamed := make(chan []Event, 1)
	go func() { streamed <- progress(t, ts, waiting.ID) }()

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Drain closes the queue; the worker is still blocked in beforeRun.
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}

	evs := <-streamed
	last := evs[len(evs)-1]
	if last.Event != "cancelled" || last.Code != 503 {
		t.Fatalf("queued job terminal event = %+v, want cancelled/503", last)
	}
	if !strings.Contains(last.Reason, "draining") {
		t.Errorf("cancel reason = %q, want a draining explanation", last.Reason)
	}
	if st := waitingState(t, ts, waiting.ID); st != StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", st)
	}
	if st := waitingState(t, ts, running.ID); st != StateDone {
		t.Errorf("running job state = %s, want done (running jobs finish during drain)", st)
	}

	// While draining: no new work, health says so, result of the
	// cancelled job is 410 with the structured reason.
	if code, _ := submit(t, ts, smallGrid()); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", code)
	}
	code, body := get(t, ts, "/jobs/"+waiting.ID+"/result")
	if code != http.StatusGone || !strings.Contains(string(body), "draining") {
		t.Errorf("cancelled job result = %d %s, want 410 with reason", code, body)
	}
	if _, scrape := get(t, ts, "/metrics"); !strings.Contains(string(scrape), "lcmd_draining 1") {
		t.Errorf("/metrics does not report lcmd_draining 1 during drain")
	}
}

func waitingState(t *testing.T, ts *httptest.Server, id string) State {
	t.Helper()
	_, body := get(t, ts, "/jobs/"+id)
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal status: %v", err)
	}
	return st.State
}

// A full queue fails fast with 503 instead of blocking the submitter.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var once bool
	started := make(chan struct{}, 1)
	s.beforeRun = func(*Job) {
		if !once {
			once = true
			started <- struct{}{}
			<-release
		}
	}
	defer close(release)

	_, _ = submit(t, ts, smallGrid())
	<-started
	second := smallGrid()
	second.SchedSeed = 1
	if code, _ := submit(t, ts, second); code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202 (fills the queue)", code)
	}
	third := smallGrid()
	third.SchedSeed = 2
	code, _ := submit(t, ts, third)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third submit = %d, want 503 (queue full)", code)
	}
}

// Freerun jobs are never cached: the freerun scheduler was removed, so
// the service refuses such a submission with a structured 400 before it
// queues a job or consults the cache.
func TestFreerunNeverCached(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	sp := smallGrid()
	sp.Scheduler = "freerun"
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var e struct{ Error string }
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(e.Error, "freerun was removed") {
		t.Fatalf("freerun submit = %d %q (%v), want 400 naming the removal", resp.StatusCode, e.Error, derr)
	}
	_, list := get(t, ts, "/jobs")
	_, stats := get(t, ts, "/cache/stats")
	var cs CacheStats
	if err := json.Unmarshal(stats, &cs); err != nil {
		t.Fatalf("unmarshal cache stats: %v", err)
	}
	if strings.TrimSpace(string(list)) != "[]" || cs.Entries != 0 || cs.Hits+cs.Misses != 0 {
		t.Fatalf("refused submission left state behind: jobs %s, cache %+v", list, cs)
	}
}

// A request body over the 1 MiB bound is refused with a structured 413
// before any of it is decoded.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"kind":"grid","cells":["` + strings.Repeat("x", maxSpecBytes) + `"]}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var e struct{ Error string }
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("oversized submit = %d %q (%v), want a JSON 413", resp.StatusCode, e.Error, derr)
	}
	if _, list := get(t, ts, "/jobs"); strings.TrimSpace(string(list)) != "[]" {
		t.Fatalf("refused submission registered a job: %s", list)
	}
}

// Model-checker jobs produce their deterministic report and are cached
// like any other pure tuple.
func TestCheckJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	sp := JobSpec{Kind: "check", Script: "pingpong", Protocol: "scc", MaxSchedules: 500}
	code, sr := submit(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	progress(t, ts, sr.ID)
	code, _, body := result(t, ts, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}
	var report struct {
		Schema   string `json:"schema"`
		OK       bool   `json:"ok"`
		Outcomes []struct {
			System    string `json:"system"`
			Script    string `json:"script"`
			Schedules int    `json:"schedules"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if report.Schema != "lcmd-check/1" || !report.OK {
		t.Fatalf("report = %+v, want ok lcmd-check/1", report)
	}
	if len(report.Outcomes) != 1 || report.Outcomes[0].Script != "pingpong" || report.Outcomes[0].Schedules == 0 {
		t.Fatalf("outcomes = %+v, want one explored pingpong outcome", report.Outcomes)
	}
	if code, sr2 := submit(t, ts, sp); code != http.StatusOK || sr2.Cache != "hit" {
		t.Errorf("repeat check submit = %d %+v, want 200 hit", code, sr2)
	}
}

// Malformed submissions are rejected up front with 400, each with a JSON
// error body; a nonzero par (the removed time-parallel knob) says so.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for body, want := range map[string]string{
		`{"kind":"grid","cells":["Mandelbrot"]}`: "",
		`{"kind":"tournament"}`:                  "",
		`{"kind":"grid","surprise":true}`:        "", // unknown fields are errors
		`not json`:                               "",
		`{"kind":"grid","par":4}`:                "par was removed",
		`{"kind":"netsweep","p":4}`:              "field p",
		`{"kind":"grid"} {"kind":"check"}`:       "trailing data",
		`{"kind":"grid"}}`:                       "trailing data",
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var e struct{ Error string }
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, resp.StatusCode)
		}
		if derr != nil || e.Error == "" || !strings.Contains(e.Error, want) {
			t.Errorf("submit %q error body = %q (%v), want a JSON error containing %q", body, e.Error, derr, want)
		}
	}
	if code, _ := get(t, ts, "/jobs/j99"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/jobs/j99/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}
}

// The non-grid campaign kinds run end to end: netsweep's rendered
// table is the (cacheable) result body, and faults jobs — a chaos plan
// and a recovery plan of the one fault matrix — produce their
// deterministic verdict JSON.
func TestNetsweepChaosRecoveryJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	code, sw := submit(t, ts, JobSpec{Kind: "netsweep", Scale: 64})
	if code != http.StatusAccepted {
		t.Fatalf("netsweep submit = %d, want 202", code)
	}
	evs := progress(t, ts, sw.ID)
	if n := countEvents(evs, "output"); n == 0 {
		t.Errorf("netsweep produced no output events; harness lines not mirrored")
	}
	// Two sweeps of 3 P x 3 bandwidths x 2 systems, one cell event per run.
	if n := countEvents(evs, "cell"); n != 36 {
		t.Errorf("netsweep produced %d cell events, want 36", n)
	}
	code, hdr, body := result(t, ts, sw.ID)
	if code != http.StatusOK {
		t.Fatalf("netsweep result = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("netsweep content type = %q, want text/plain", ct)
	}
	if !strings.Contains(string(body), "Sweep:") {
		t.Errorf("netsweep result does not contain the sweep table: %.200s", body)
	}

	for _, plan := range []string{"light", "drop-1pct"} {
		code, fj := submit(t, ts, JobSpec{Kind: "faults", P: 4, Scale: 64, FaultPlan: plan, Seeds: []uint64{1}})
		if code != http.StatusAccepted {
			t.Fatalf("faults %s submit = %d, want 202", plan, code)
		}
		// 4 cells x 3 systems x (baseline + one seed + its replay).
		if n := countEvents(progress(t, ts, fj.ID), "cell"); n != 36 {
			t.Errorf("faults %s produced %d cell events, want 36", plan, n)
		}
		_, _, body = result(t, ts, fj.ID)
		var v struct {
			Schema string   `json:"schema"`
			Plans  []string `json:"plans"`
			OK     bool     `json:"ok"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("unmarshal faults verdict: %v in %.200s", err, body)
		}
		if v.Schema != "lcmd-faults/1" || !v.OK || len(v.Plans) != 1 || v.Plans[0] != plan {
			t.Errorf("faults verdict = %+v, want passing lcmd-faults/1 for plan %s", v, plan)
		}
	}
}

// countEvents counts the events of one kind in a progress stream.
func countEvents(evs []Event, kind string) int {
	n := 0
	for _, ev := range evs {
		if ev.Event == kind {
			n++
		}
	}
	return n
}

// A net sweep with failed runs fails its job instead of caching a table
// of zero-cycle rows: at 512-byte blocks every LCM-mcc run fails.
func TestFailedNetsweepNotCached(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	sp := JobSpec{Kind: "netsweep", Scale: 64, BlockSize: 512}
	code, sr := submit(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	evs := progress(t, ts, sr.ID)
	last := evs[len(evs)-1]
	if last.Event != "failed" || !strings.Contains(last.Error, "block size 512 exceeds 256 bytes") {
		t.Fatalf("terminal event = %+v, want failed with the config error", last)
	}
	if code, _, body := result(t, ts, sr.ID); code != http.StatusGone {
		t.Fatalf("failed netsweep result = %d %.200s, want 410", code, body)
	}
	if code, sr2 := submit(t, ts, sp); code != http.StatusAccepted || sr2.Cache != "miss" {
		t.Errorf("resubmit after failure = %d %+v, want 202 miss", code, sr2)
	}
}

// A run that errors inside the simulator fails the job with the error
// in its terminal event, and the failed result answers 410.
func TestFailedJobReportsError(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// 512-byte blocks pass spec validation (power of two) but exceed the
	// protocol's element-tracking limit, failing every cell at run time.
	sp := smallGrid()
	sp.BlockSize = 512
	code, sr := submit(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	evs := progress(t, ts, sr.ID)
	last := evs[len(evs)-1]
	if last.Event != "failed" || last.Error == "" {
		t.Fatalf("terminal event = %+v, want failed with an error", last)
	}
	code, _, body := result(t, ts, sr.ID)
	if code != http.StatusGone {
		t.Fatalf("failed job result = %d %s, want 410", code, body)
	}
	// The failure is not cached: resubmitting runs (and fails) again.
	if code, sr2 := submit(t, ts, sp); code != http.StatusAccepted || sr2.Cache != "miss" {
		t.Errorf("resubmit after failure = %d %+v, want 202 miss", code, sr2)
	}
}

func TestHealthzAndCollectorNames(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q, want 200 ok", code, body)
	}
	if s.Draining() {
		t.Errorf("fresh server reports draining")
	}
	names := map[string]bool{}
	for _, c := range []Collector{
		tempestCollector{s.stats}, netCollector{s.stats}, recoveryCollector{s.stats},
		schedCollector{s.stats}, queueCollector{s},
	} {
		if n := c.Name(); n == "" || names[n] {
			t.Errorf("collector name %q empty or duplicated", n)
		} else {
			names[n] = true
		}
	}
}

// GET /jobs lists submissions in order; /cache/stats reports the
// content-addressed entries.
func TestListAndCacheStats(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, a := submit(t, ts, smallGrid())
	progress(t, ts, a.ID)
	_, b := submit(t, ts, smallGrid()) // hit
	code, body := get(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs = %d", code)
	}
	var list []status
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("unmarshal list: %v", err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list = %+v, want [%s %s]", list, a.ID, b.ID)
	}

	code, body = get(t, ts, "/cache/stats")
	if code != http.StatusOK {
		t.Fatalf("/cache/stats = %d", code)
	}
	var cs CacheStats
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatalf("unmarshal cache stats: %v", err)
	}
	if cs.Entries != 1 || cs.Hits != 1 || cs.Bytes == 0 {
		t.Fatalf("cache stats = %+v, want 1 entry, 1 hit, nonzero bytes", cs)
	}
	if len(cs.Keys) != 1 || cs.Keys[0].Key != a.Key || cs.Keys[0].Job != a.ID {
		t.Fatalf("cache keys = %+v, want the first job's entry", cs.Keys)
	}
}
