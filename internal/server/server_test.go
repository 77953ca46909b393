package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/pipeline"
	"reese/internal/workload"
)

// testInsts keeps figure cells fast; results still exercise the full
// grid machinery.
const testInsts = 5_000

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) JobView {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("POST %s: decode %q: %v", url, data, err)
	}
	return v
}

// postJSONAny is postJSON for jobs expected to end badly: a waited-out
// failed job answers 500 with the JobView as its body.
func postJSONAny(t *testing.T, url string, body any) (JobView, int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("POST %s: decode %q: %v", url, data, err)
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return string(data)
}

// TestFigureEndToEnd is the acceptance-criteria test: a figure
// requested over HTTP (submit → poll → result) must render the
// byte-identical table an in-process harness call produces.
func TestFigureEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Asynchronous submit, then poll until done.
	v := postJSON(t, ts.URL+"/v1/figure", FigureRequest{Figure: "2", Insts: testInsts})
	if v.State != StateQueued && v.State != StateRunning && v.State != StateDone {
		t.Fatalf("fresh job in state %q", v.State)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !v.State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q at deadline", v.ID, v.State)
		}
		time.Sleep(50 * time.Millisecond)
		v = getJob(t, ts.URL, v.ID)
	}
	if v.State != StateDone {
		t.Fatalf("job %s finished %q: %s", v.ID, v.State, v.Error)
	}
	var payload FigurePayload
	if err := json.Unmarshal(v.Result, &payload); err != nil {
		t.Fatal(err)
	}

	want, err := harness.Figure2(harness.Options{Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	if payload.Table != want.Table() {
		t.Errorf("HTTP figure table differs from in-process harness call\n got:\n%s\nwant:\n%s", payload.Table, want.Table())
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(payload.Figure)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("HTTP figure series differs from in-process harness call")
	}
}

// TestCacheHit locks in the second identical request being served from
// the cache with the hit counter incremented and identical bytes.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := RunRequest{Workload: "li", Insts: testInsts}
	first := postJSON(t, ts.URL+"/v1/run?wait=120s", req)
	if first.State != StateDone {
		t.Fatalf("first run finished %q: %s", first.State, first.Error)
	}
	if first.Cached {
		t.Fatal("first request claims to be cached")
	}

	second := postJSON(t, ts.URL+"/v1/run?wait=120s", req)
	if second.State != StateDone {
		t.Fatalf("second run finished %q: %s", second.State, second.Error)
	}
	if !second.Cached {
		t.Error("second identical request was not served from cache")
	}
	if string(first.Result) != string(second.Result) {
		t.Error("cached result differs from computed result")
	}
	if second.ID == first.ID {
		t.Error("cache hit reused the first job's ID")
	}

	// A semantically identical sparse spelling must hit too (defaults
	// are canonicalized into the key).
	sparse := postJSON(t, ts.URL+"/v1/run?wait=120s",
		map[string]any{"workload": "li", "insts": testInsts, "iters": 0})
	if !sparse.Cached {
		t.Error("sparse spelling of the same request missed the cache")
	}

	metrics := scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, "reese_serve_cache_hits_total 2") {
		t.Errorf("metrics missing cache_hits_total 2:\n%s", grepMetrics(metrics, "cache"))
	}
	if !strings.Contains(metrics, "reese_serve_cache_misses_total 1") {
		t.Errorf("metrics missing cache_misses_total 1:\n%s", grepMetrics(metrics, "cache"))
	}

	// The run result must match a direct pipeline computation bit for
	// bit (determinism is what makes the cache sound).
	var got pipeline.Result
	if err := json.Unmarshal(second.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "li" || got.Committed == 0 || got.IPC == 0 {
		t.Errorf("suspicious cached result: %+v", got)
	}
}

// TestClientDisconnectCancelsRun locks the cancellation path: a
// synchronous (waiting) submitter that disconnects stops its
// simulation mid-run.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A run long enough that it cannot finish before we disconnect:
	// a large program and a large budget.
	spec, _ := workload.ByName("gcc")
	body, _ := json.Marshal(RunRequest{
		Workload: "gcc",
		Insts:    40_000_000,
		Iters:    spec.DefaultIters * 400,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/run?wait=120s", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	done := make(chan error, 1)
	go func() {
		_, derr := http.DefaultClient.Do(req)
		done <- derr
	}()

	// Give the job time to enter the cycle loop, then vanish.
	waitFor(t, 10*time.Second, func() bool { return s.jobs.running.Load() == 1 })
	cancel()
	if derr := <-done; derr == nil {
		t.Fatal("expected the disconnected request to error")
	}

	// The simulation must stop promptly — the context check is every
	// 16k cycles, so anything beyond a couple of seconds means the
	// cancellation never reached the cycle loop.
	waitFor(t, 5*time.Second, func() bool { return s.jobs.running.Load() == 0 })

	views := s.jobs.list()
	if len(views) != 1 {
		t.Fatalf("expected 1 job, have %d", len(views))
	}
	if views[0].State != StateCanceled {
		t.Errorf("job state %q after disconnect, want %q (err: %s)", views[0].State, StateCanceled, views[0].Error)
	}

	metrics := scrapeMetrics(t, ts.URL)
	want := `reese_serve_jobs_completed_total{kind="run",state="canceled"} 1`
	if !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "jobs"))
	}
}

// TestJobTimeout: a ?timeout= bound expires the attempt; with retries
// disabled the job fails for good with a deadline cause and a single
// recorded attempt. (Deadline expiry is a transient failure now — see
// TestRetryAfterDeadline for the retrying path.)
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRetries: -1})
	spec, _ := workload.ByName("perl")
	v, _ := postJSONAny(t, ts.URL+"/v1/run?timeout=150ms&wait=60s", RunRequest{
		Workload: "perl",
		Insts:    40_000_000,
		Iters:    spec.DefaultIters * 400,
	})
	if v.State != StateFailed {
		t.Errorf("timed-out job state %q, want %q (err: %s)", v.State, StateFailed, v.Error)
	}
	if !strings.Contains(v.LastCause, "deadline") {
		t.Errorf("last cause %q, want a deadline cause", v.LastCause)
	}
	if v.Attempt != 1 || len(v.Attempts) != 1 {
		t.Errorf("attempt count %d (%d records), want exactly 1 with retries disabled", v.Attempt, len(v.Attempts))
	}
}

// TestRetryAfterDeadline: with a retry budget, a deadline expiry is
// retried with backoff — attempt history, last cause, and the retried
// counter are all visible.
func TestRetryAfterDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxRetries:   1,
		RetryBackoff: 20 * time.Millisecond,
	})
	spec, _ := workload.ByName("perl")
	v, code := postJSONAny(t, ts.URL+"/v1/run?timeout=120ms&wait=60s", RunRequest{
		Workload: "perl",
		Insts:    40_000_000,
		Iters:    spec.DefaultIters * 400,
	})
	if code != http.StatusInternalServerError {
		t.Errorf("waited-out failed job answered %d, want 500", code)
	}
	if v.State != StateFailed {
		t.Fatalf("job state %q, want failed after retries exhausted (err: %s)", v.State, v.Error)
	}
	if v.Attempt != 2 || len(v.Attempts) != 2 {
		t.Errorf("attempt count %d (%d records), want 2 (original + 1 retry)", v.Attempt, len(v.Attempts))
	}
	if !strings.Contains(v.Error, "retries exhausted") {
		t.Errorf("error %q does not mention exhausted retries", v.Error)
	}
	for _, a := range v.Attempts {
		if !strings.Contains(a.Cause, "deadline") {
			t.Errorf("attempt %d cause %q, want a deadline cause", a.Number, a.Cause)
		}
	}
	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"reese_serve_jobs_retried_total 1",
		"reese_serve_jobs_deadline_exceeded_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "jobs_"))
		}
	}
}

// TestRetryingJobExposesNextRetry: while a job sits out its backoff,
// GET /v1/jobs/{id} shows state retrying, the attempt count, the last
// cause, and the next-retry time; cancelling it abandons the retry.
func TestRetryingJobExposesNextRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		MaxRetries:   1,
		RetryBackoff: 30 * time.Second, // long enough to observe the retrying state
		BeforeAttempt: func(ctx context.Context, jobID, kind string, attempt int) {
			if attempt == 1 {
				panic("first attempt always fails")
			}
		},
	})
	v := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "li", Insts: testInsts})
	deadline := time.Now().Add(10 * time.Second)
	for v.State != StateRetrying {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never entered retrying (state %q)", v.ID, v.State)
		}
		time.Sleep(10 * time.Millisecond)
		v = getJob(t, ts.URL, v.ID)
	}
	if v.NextRetry == nil || !v.NextRetry.After(time.Now()) {
		t.Errorf("retrying job next_retry = %v, want a future time", v.NextRetry)
	}
	if v.Attempt != 1 || !strings.Contains(v.LastCause, "panic: first attempt always fails") {
		t.Errorf("retrying job attempt %d cause %q", v.Attempt, v.LastCause)
	}
	if v.Attempts[0].Stack == "" {
		t.Error("panicked attempt record has no stack")
	}

	// Cancel the parked retry so shutdown doesn't wait out the backoff.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var after JobView
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.State != StateCanceled {
		t.Errorf("cancelled retrying job state %q, want canceled", after.State)
	}
	if after.NextRetry != nil {
		t.Error("terminal job still advertises next_retry")
	}
}

// TestDeleteCancelsQueuedJob: DELETE cancels a job that is still
// waiting behind the workers.
func TestDeleteCancelsQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	spec, _ := workload.ByName("go")
	long := RunRequest{Workload: "go", Insts: 40_000_000, Iters: spec.DefaultIters * 400}

	running := postJSON(t, ts.URL+"/v1/run", long)
	waitFor(t, 10*time.Second, func() bool { return s.jobs.running.Load() == 1 })
	queued := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "go", Insts: 39_999_999, Iters: long.Iters})
	if queued.State != StateQueued {
		t.Fatalf("second job state %q, want queued", queued.State)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.State != StateCanceled {
		t.Errorf("deleted job state %q, want canceled", v.State)
	}

	// Clean up the long runner too so Shutdown is quick.
	delReq, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err == nil {
		resp.Body.Close()
	}
}

// TestQueueBackpressure: a full queue rejects submits with 503.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	spec, _ := workload.ByName("vortex")
	long := func(insts uint64) []byte {
		raw, _ := json.Marshal(RunRequest{Workload: "vortex", Insts: insts, Iters: spec.DefaultIters * 400})
		return raw
	}

	first := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "vortex", Insts: 40_000_000, Iters: spec.DefaultIters * 400})
	waitFor(t, 10*time.Second, func() bool { return s.jobs.running.Load() == 1 })
	second := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "vortex", Insts: 40_000_001, Iters: spec.DefaultIters * 400})
	if second.State != StateQueued {
		t.Fatalf("second job state %q, want queued", second.State)
	}

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(string(long(40_000_002))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("third submit status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 carries no Retry-After header")
	}
	var shed errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shed.Error, "queue full") {
		t.Errorf("503 body %q does not name the queue", shed.Error)
	}
	if shed.RetryAfterMS < 1000 {
		t.Errorf("retry_after_ms %d, want >= 1000 (clamped floor)", shed.RetryAfterMS)
	}

	for _, id := range []string{first.ID, second.ID} {
		delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(delReq); err == nil {
			resp.Body.Close()
		}
	}
}

// TestGracefulDrain: Shutdown finishes queued work before returning,
// and post-drain submits are refused.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "ijpeg", Insts: testInsts})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := getJob(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Errorf("job state %q after drain, want done (err: %s)", got.State, got.Error)
	}

	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"ijpeg"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	// Shedding because of shutdown must be distinguishable from
	// backpressure: the client should fail over, not wait out a queue.
	var shed errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shed.Error, "shutting down") {
		t.Errorf("post-drain 503 body %q does not say shutting down", shed.Error)
	}
}

// A client-supplied machine whose window would need hundreds of GB is
// refused at the door with a 400: an out-of-memory error in a worker is
// fatal to the whole process, so no job may ever try to allocate it.
func TestRunRejectsOversizedMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := config.Starting()
	m.RUUSize = 1 << 30
	raw, err := json.Marshal(RunRequest{Workload: "gcc", Insts: 1000, Machine: &m})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run?wait=10s", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "RUU size") {
		t.Errorf("RUUSize 1<<30: status %d body %s, want 400 naming the RUU size", resp.StatusCode, body)
	}
}

// A machine whose memory hierarchy pipeline.New would refuse (an L2
// block of 48 bytes) is a 400 at submission, not a failed job.
func TestRunRejectsBadCacheGeometry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := config.Starting()
	m.Memory.L2.BlockBytes = 48
	if status, body := postRun(t, ts.URL, m); status != http.StatusBadRequest || !strings.Contains(body, "block size 48") {
		t.Errorf("L2 BlockBytes 48: status %d body %s, want 400 naming the block size", status, body)
	}
}

// A negative page-walk cost is a request error, not a run whose first
// TLB miss completes at a wrapped cycle and reports a hang.
func TestRunRejectsNegativeTLBMissLatency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := config.Starting()
	m.Memory.ITLB.MissLatency, m.Memory.DTLB.MissLatency = -1000, -1000
	if status, body := postRun(t, ts.URL, m); status != http.StatusBadRequest || !strings.Contains(body, "miss latency -1000") {
		t.Errorf("TLB MissLatency -1000: status %d body %s, want 400 naming the latency", status, body)
	}
}

// postRun submits a short gcc run on machine m and returns the status
// and body.
func postRun(t *testing.T, url string, m config.Machine) (int, string) {
	t.Helper()
	raw, err := json.Marshal(RunRequest{Workload: "gcc", Insts: 1000, Machine: &m})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run?wait=10s", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// TestHealthzAndBadRequests covers the probe and input validation.
func TestHealthzAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status %v", health["status"])
	}

	for _, body := range []string{
		`{"workload":"nonesuch"}`,
		`{"workload":"gcc","insts":999999999999}`,
		`{not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/figure", "application/json", strings.NewReader(`{"figure":"9"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("figure 9: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExposition asserts the endpoint renders well-formed
// families with the expected names after some traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/run?wait=120s", RunRequest{Workload: "gcc", Insts: testInsts})

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE reese_serve_jobs_submitted_total counter",
		`reese_serve_jobs_submitted_total{kind="run"} 1`,
		`reese_serve_jobs_completed_total{kind="run",state="done"} 1`,
		"# TYPE reese_serve_jobs_queued gauge",
		"# TYPE reese_serve_jobs_running gauge",
		"# TYPE reese_serve_cache_hits_total counter",
		"# TYPE reese_serve_sim_insts_total counter",
		"# TYPE reese_serve_http_request_duration_seconds histogram",
		`reese_serve_http_requests_total{path="/v1/run",code="200"} 1`,
		`reese_serve_http_request_duration_seconds_bucket{path="/v1/run",le="+Inf"} 1`,
		"# TYPE reese_serve_job_queue_wait_seconds histogram",
		"reese_serve_job_queue_wait_seconds_count 1",
		"# TYPE reese_serve_job_attempt_seconds histogram",
		`reese_serve_job_attempt_seconds_count{outcome="ok"} 1`,
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_alloc_bytes gauge",
		"# TYPE go_gc_pause_seconds_total gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// sim_insts_total must reflect the committed instructions.
	var insts uint64
	if _, err := fmt.Sscanf(findLine(metrics, "reese_serve_sim_insts_total "), "reese_serve_sim_insts_total %d", &insts); err != nil {
		t.Fatalf("parse sim_insts_total: %v", err)
	}
	// Commit retires up to Width instructions per cycle, so the budget
	// can overshoot by a cycle's worth.
	if insts == 0 || insts > testInsts+64 {
		t.Errorf("sim_insts_total %d, want (0, %d]", insts, testInsts+64)
	}
}

// TestJobSpans locks the span tree served from GET /v1/jobs/{id}: a
// completed job carries a closed root span with a queue-wait child and
// one attempt child per execution, outcomes filled in; a cache hit
// carries its cache-lookup span instead.
func TestJobSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := RunRequest{Workload: "perl", Insts: testInsts}
	v := postJSON(t, ts.URL+"/v1/run?wait=120s", req)
	if v.State != StateDone {
		t.Fatalf("run finished %q: %s", v.State, v.Error)
	}
	if v.Spans == nil {
		t.Fatal("done job has no span tree")
	}
	if v.Spans.Name != "job run" || v.Spans.End == nil || v.Spans.Outcome != string(StateDone) {
		t.Errorf("root span %q end=%v outcome=%q, want closed 'job run' with outcome done",
			v.Spans.Name, v.Spans.End, v.Spans.Outcome)
	}
	qw := v.Spans.Find("queue-wait")
	if qw == nil || qw.End == nil {
		t.Errorf("queue-wait span missing or open: %+v", qw)
	}
	att := v.Spans.Find("attempt 1")
	if att == nil || att.End == nil || att.Outcome != "ok" {
		t.Errorf("attempt 1 span missing/open/mislabeled: %+v", att)
	}
	if att != nil && qw != nil && att.Start.Before(qw.Start) {
		t.Error("attempt started before the job was queued")
	}

	// The same spans must come back on a later poll (snapshot clones,
	// not aliases).
	polled := getJob(t, ts.URL, v.ID)
	if polled.Spans == nil || polled.Spans.Find("attempt 1") == nil {
		t.Error("polled job view lost its span tree")
	}

	// A cache hit is a different trace: no queue-wait, a cache-lookup
	// child with outcome "hit".
	hit := postJSON(t, ts.URL+"/v1/run?wait=120s", req)
	if !hit.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if hit.Spans == nil {
		t.Fatal("cached job has no span tree")
	}
	if cl := hit.Spans.Find("cache-lookup"); cl == nil || cl.Outcome != "hit" {
		t.Errorf("cache-lookup span missing or mislabeled: %+v", cl)
	}
	if hit.Spans.Find("queue-wait") != nil {
		t.Error("cached job claims to have waited in the queue")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func findLine(metrics, prefix string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
