package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/server"
)

// hookRecorder implements Hooks, counting every callback.
type hookRecorder struct {
	mu                                       sync.Mutex
	assigned, completed, retried, reassigned int
	corrupted, readmitted, resumed, restored int
}

func (h *hookRecorder) inc(p *int)             { h.mu.Lock(); *p++; h.mu.Unlock() }
func (h *hookRecorder) ShardAssigned()         { h.inc(&h.assigned) }
func (h *hookRecorder) ShardCompleted(float64) { h.inc(&h.completed) }
func (h *hookRecorder) ShardRetried()          { h.inc(&h.retried) }
func (h *hookRecorder) ShardReassigned()       { h.inc(&h.reassigned) }
func (h *hookRecorder) ShardCorrupted()        { h.inc(&h.corrupted) }
func (h *hookRecorder) WorkerReadmitted()      { h.inc(&h.readmitted) }
func (h *hookRecorder) CampaignResumed()       { h.inc(&h.resumed) }
func (h *hookRecorder) ShardRestored()         { h.inc(&h.restored) }

func (h *hookRecorder) snapshot() hookRecorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	return hookRecorder{
		assigned: h.assigned, completed: h.completed, retried: h.retried,
		reassigned: h.reassigned, corrupted: h.corrupted, readmitted: h.readmitted,
		resumed: h.resumed, restored: h.restored,
	}
}

// Retry-After arrives in two RFC 9110 forms; both must parse, and the
// old integer-seconds-only parser's blind spot (HTTP-date) is the case
// that matters, because net/http servers and proxies emit either.
func TestParseRetryAfter(t *testing.T) {
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	cases := []struct {
		in  string
		ok  bool
		min time.Duration
		max time.Duration
	}{
		{"30", true, 30 * time.Second, 30 * time.Second},
		{" 5 ", true, 5 * time.Second, 5 * time.Second},
		{"0", true, 0, 0},
		{future, true, 80 * time.Second, 91 * time.Second},
		{past, true, 0, 0}, // past dates clamp to zero, not negative
		{"-3", false, 0, 0},
		{"soon", false, 0, 0},
		{"", false, 0, 0},
	}
	for _, c := range cases {
		d, ok := parseRetryAfter(c.in)
		if ok != c.ok {
			t.Errorf("parseRetryAfter(%q) ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && (d < c.min || d > c.max) {
			t.Errorf("parseRetryAfter(%q) = %s, want within [%s, %s]", c.in, d, c.min, c.max)
		}
	}
}

// A canceled context must stop the campaign promptly even when every
// worker is answering 503 with a far-future HTTP-date Retry-After —
// the coordinator's backoff sleeps all select on ctx.
func TestClusterCancelPromptlyDuringBackoff(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer busy.Close()

	machine := config.Starting().WithReese()
	cfg := testClusterConfig([]string{busy.URL})
	cfg.MaxAttempts = 1_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, cfg, Campaign{Workload: "li", Machine: &machine, Injections: 10, Seed: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %s to land; backoff sleeps are not ctx-aware", elapsed)
	}
}

// rewriteOnceTransport passes every response body through rewrite
// until one call reports a change, then passes everything through
// untouched — the deterministic version of in-flight damage.
type rewriteOnceTransport struct {
	mu      sync.Mutex
	done    bool
	rewrite func(body []byte) ([]byte, bool)
}

func (c *rewriteOnceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if !c.done {
		body, c.done = c.rewrite(body)
	}
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// flipInjected flips one bit inside the first digest-stamped shard
// payload: "injected" -> "hnjected", valid JSON with wrong content.
func flipInjected(body []byte) ([]byte, bool) {
	if bytes.Contains(body, []byte(`"digest"`)) {
		if i := bytes.Index(body, []byte(`"injected"`)); i >= 0 {
			body[i+1] ^= 0x01
			return body, true
		}
	}
	return body, false
}

// stampedDigest matches a shard payload's sha256 stamp.
var stampedDigest = regexp.MustCompile(`"digest":\s*"[0-9a-f]{64}"`)

// clearDigest blanks the digest of a stamped shard payload, leaving
// the body otherwise intact.
func clearDigest(body []byte) ([]byte, bool) {
	if !stampedDigest.Match(body) {
		return body, false
	}
	return stampedDigest.ReplaceAllLiteral(body, []byte(`"digest":""`)), true
}

// refetchedCampaign runs a 20-injection li campaign through one worker
// behind tr and checks the damaged payload was counted as corrupted,
// announced by a corrupted event, and re-fetched: the final report is
// byte-identical to the single-process one.
func refetchedCampaign(t *testing.T, tr http.RoundTripper) {
	t.Helper()
	machine := config.Starting().WithReese()
	single, err := harness.Campaign(harness.CampaignSpec{
		Workload: "li", Machine: machine, Injections: 20, Seed: 5,
	}, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(stripWall(single))

	hooks := &hookRecorder{}
	var corruptedEvents int
	var mu sync.Mutex
	cfg := testClusterConfig(newWorkers(t, 1))
	cfg.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	cfg.Metrics = hooks
	cfg.OnEvent = func(ev Event) {
		if ev.Type == "corrupted" {
			mu.Lock()
			corruptedEvents++
			mu.Unlock()
		}
	}
	rep, err := Run(context.Background(), cfg, Campaign{
		Workload: "li", Machine: &machine, Injections: 20, Seed: 5, ShardSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := hooks.snapshot()
	if h.corrupted == 0 {
		t.Fatal("damaged payload was not counted as corrupted — it merged silently or the damage missed")
	}
	mu.Lock()
	if corruptedEvents == 0 {
		t.Error("no corrupted event emitted")
	}
	mu.Unlock()
	gotJSON, _ := json.Marshal(stripWall(rep))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("report after in-flight damage differs from single-process:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// A payload damaged in flight must be caught by the sha256 check,
// counted, and re-fetched — never merged. The worker's result cache
// answers the retry, so the final report is still byte-identical.
func TestClusterCorruptPayloadRefetched(t *testing.T) {
	refetchedCampaign(t, &rewriteOnceTransport{rewrite: flipInjected})
}

// A done shard whose payload carries no digest cannot be verified, so
// it is refused exactly like a mismatch: counted as corrupted and
// re-fetched, never merged.
func TestClusterUndigestedPayloadRefetched(t *testing.T) {
	refetchedCampaign(t, &rewriteOnceTransport{rewrite: clearDigest})
}

// partitionTransport fails every request to one host while engaged.
type partitionTransport struct {
	mu      sync.Mutex
	host    string
	blocked bool
}

func (p *partitionTransport) set(blocked bool) {
	p.mu.Lock()
	p.blocked = blocked
	p.mu.Unlock()
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	blocked := p.blocked && req.URL.Host == p.host
	p.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("chaos: partitioned from %s", p.host)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// A partitioned worker must be quarantined, probed, and readmitted —
// not abandoned forever — and the campaign still merges byte-identical.
func TestClusterWorkerQuarantineAndReadmission(t *testing.T) {
	machine := config.Starting().WithReese()
	const injections = 60
	single, err := harness.Campaign(harness.CampaignSpec{
		Workload: "gcc", Machine: machine, Injections: injections, Seed: 11,
	}, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(stripWall(single))

	_, tsA := newWorker(t, server.Config{Workers: 1})
	_, tsB := newWorker(t, server.Config{Workers: 1})

	pt := &partitionTransport{host: strings.TrimPrefix(tsB.URL, "http://"), blocked: true}
	hooks := &hookRecorder{}
	var mu sync.Mutex
	events := map[string]int{}
	cfg := testClusterConfig([]string{tsA.URL, tsB.URL})
	cfg.Client = &http.Client{Transport: pt, Timeout: 30 * time.Second}
	cfg.Metrics = hooks
	cfg.MaxAttempts = 100
	cfg.RetryPause = 5 * time.Millisecond
	cfg.ProbationBase = 5 * time.Millisecond
	cfg.ProbationMax = 20 * time.Millisecond
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		events[ev.Type]++
		mu.Unlock()
		if ev.Type == "quarantined" {
			pt.set(false) // heal the partition once quarantine is observed
		}
	}
	rep, err := Run(context.Background(), cfg, Campaign{
		Workload: "gcc", Machine: &machine, Injections: injections, Seed: 11, ShardSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := hooks.snapshot()
	mu.Lock()
	quarantined, readmitted := events["quarantined"], events["readmitted"]
	mu.Unlock()
	if quarantined == 0 {
		t.Fatal("partitioned worker was never quarantined; the partition did not land")
	}
	if readmitted == 0 || h.readmitted == 0 {
		t.Fatalf("healed worker was never readmitted (events %d, metric %d)", readmitted, h.readmitted)
	}
	gotJSON, _ := json.Marshal(stripWall(rep))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("report after quarantine/readmission differs from single-process")
	}
}

// All workers gone for longer than AllLostTimeout must fail the
// campaign instead of waiting forever.
func TestClusterAllWorkersLostFailsAfterTimeout(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from the start

	machine := config.Starting().WithReese()
	cfg := testClusterConfig([]string{dead.URL})
	cfg.MaxAttempts = 1_000_000 // force the all-lost path, not attempt exhaustion
	cfg.ProbationBase = 10 * time.Millisecond
	cfg.ProbationMax = 20 * time.Millisecond
	cfg.AllLostTimeout = 300 * time.Millisecond
	start := time.Now()
	_, err := Run(context.Background(), cfg, Campaign{
		Workload: "li", Machine: &machine, Injections: 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("campaign with no reachable workers returned no error")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("unexpected failure: %v", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("all-lost failsafe took %s", e)
	}
}

// A streaming client that disconnects mid-campaign must cancel the
// campaign and leak no goroutines — for both stream flavors.
func TestClusterHandlerClientDisconnect(t *testing.T) {
	for _, stream := range []string{"", "sse"} {
		t.Run("stream="+map[string]string{"": "jsonl", "sse": "sse"}[stream], func(t *testing.T) {
			cfg := testClusterConfig(newWorkers(t, 1))
			h := Handler(cfg)
			ts := httptest.NewServer(h)
			defer ts.Close()

			before := runtime.NumGoroutine()
			machine := config.Starting().WithReese()
			body, _ := json.Marshal(Campaign{
				Workload: "gcc", Machine: &machine, Injections: 200, Seed: 9, ShardSize: 10,
			})
			url := ts.URL
			if stream != "" {
				url += "?stream=" + stream
			}
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			// Read one progress frame to prove the campaign is running, then
			// hang up mid-stream.
			buf := make([]byte, 1)
			if _, err := resp.Body.Read(buf); err != nil {
				t.Fatalf("stream produced nothing before disconnect: %v", err)
			}
			resp.Body.Close()

			// The handler's Run uses the request context: the disconnect must
			// cancel the campaign and unwind every goroutine it started.
			deadline := time.Now().Add(15 * time.Second)
			for {
				runtime.GC()
				if g := runtime.NumGoroutine(); g <= before+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("campaign goroutines leaked after client disconnect: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(50 * time.Millisecond)
			}
		})
	}
}

// A campaign no worker would accept fails before it costs anything: Run
// returns the validation error without writing a WAL file or submitting
// a batch, and the coordinator endpoint answers 400. Journaling it
// instead would burn MaxAttempts per shard on the workers' 400s and
// leave a WAL that every -resume start retries.
func TestClusterRejectsInvalidCampaignBeforeJournaling(t *testing.T) {
	var submits sync.Map
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"ready":true}`))
			return
		}
		submits.Store(r.URL.Path, true)
		http.Error(w, `{"error":"invalid shard"}`, http.StatusBadRequest)
	}))
	defer worker.Close()
	cfg := testClusterConfig([]string{worker.URL})
	cfg.WALDir = t.TempDir()
	for _, c := range []Campaign{
		{Workload: "nope", Injections: 40},
		{Workload: "li", Structures: []string{"bogus"}, Injections: 40},
		{Workload: "li", Injections: 0},
	} {
		// A campaign that slipped past validation would retry the
		// worker's 400s until cancelled; bound it.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if _, err := Run(ctx, cfg, c); err == nil {
			t.Errorf("Run(%+v) succeeded, want a validation error", c)
		}
		body, _ := json.Marshal(c)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/faults", bytes.NewReader(body)).WithContext(ctx)
		Handler(cfg).ServeHTTP(rec, req)
		cancel()
		if rec.Code != http.StatusBadRequest {
			t.Errorf("Handler(%+v) answered %d, want 400: %s", c, rec.Code, rec.Body)
		}
	}
	if files, _ := os.ReadDir(cfg.WALDir); len(files) > 0 {
		t.Errorf("invalid campaigns left %d files in the WAL dir, want none (first: %s)", len(files), files[0].Name())
	}
	submits.Range(func(path, _ any) bool {
		t.Errorf("invalid campaign reached the worker at %s", path)
		return true
	})
}
