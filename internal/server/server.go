// Package server turns the REESE reproduction into a long-lived HTTP
// service: single simulations (POST /v1/run), paper figures
// (POST /v1/figure), and fault campaigns (POST /v1/faults) become
// asynchronous jobs on a bounded queue drained by a fixed worker pool,
// with a content-addressed LRU result cache (sound because simulation
// is deterministic), Prometheus metrics at GET /metrics, a health probe
// at GET /healthz, structured request logging via log/slog, and
// graceful drain for SIGTERM handling in cmd/reese-serve.
//
// Job lifecycle: a submit returns 202 with a job ID; GET /v1/jobs/{id}
// polls it; DELETE cancels it. A ?wait=30s query on submit or poll
// blocks until the job finishes (or the wait expires, returning the
// in-flight status). A waiting submit is interactive: if its client
// disconnects, the job's context — threaded through harness into the
// pipeline cycle loop — is cancelled and the simulation stops burning
// CPU within a few thousand cycles.
//
// The serving layer self-heals (see job.go for the machinery): worker
// panics are contained, attempts carry deadlines and a progress
// watchdog, transient failures retry with backoff, and — when
// Config.JournalPath is set — accepted work survives a crash through
// the write-ahead journal (journal.go) and is re-enqueued on restart.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/pipeline"
	"reese/internal/workload"
)

// Config tunes the serving layer; zero values select the defaults.
type Config struct {
	// Workers is the number of jobs simulated concurrently (default 2).
	// Each job's internal grid parallelism is GOMAXPROCS/Workers, so the
	// machine is never oversubscribed — the same discipline as harness's
	// shared pool.
	Workers int
	// QueueDepth bounds jobs waiting behind the workers (default 64);
	// submits beyond it fail with 503 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the result cache (default 256; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// MaxJobs bounds the job registry (default 4096 retained jobs).
	MaxJobs int
	// MaxWait caps any ?wait= duration (default 120s).
	MaxWait time.Duration
	// Limits bound per-request simulation work.
	Limits Limits
	// Logger receives structured request and job logs (default
	// slog.Default()).
	Logger *slog.Logger

	// JournalPath enables the crash-safe job journal: accepted submits
	// and state transitions are fsync'd there, and New replays it —
	// re-enqueueing unfinished jobs — before serving. Empty disables
	// durability (the PR-2 behavior).
	JournalPath string
	// JobTimeout bounds each attempt when the request carries no
	// ?timeout= (default 10m); MaxTimeout caps any requested value
	// (default 30m).
	JobTimeout time.Duration
	MaxTimeout time.Duration
	// MaxRetries is how many times a transient failure (panic, deadline,
	// watchdog kill) is retried before the job fails for good (default
	// 2; negative means never retry).
	MaxRetries int
	// RetryBackoff seeds the exponential backoff between attempts
	// (default 500ms), capped at RetryBackoffMax (default 15s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// WatchdogInterval is how often running jobs' progress heartbeats
	// are sampled (default 1s). WatchdogStall is how long an attempt may
	// go without committing a single instruction before it is killed as
	// retryable (default 60s; negative disables the watchdog).
	WatchdogInterval time.Duration
	WatchdogStall    time.Duration
	// BeforeAttempt, when set, runs at the top of every contained job
	// attempt — the chaos harness's injection point (panic here to
	// simulate a worker crash, block on ctx to simulate a hang). Leave
	// nil in production.
	BeforeAttempt func(ctx context.Context, jobID, kind string, attempt int)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 120 * time.Second
	}
	if c.Limits == (Limits{}) {
		c.Limits = DefaultLimits()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 15 * time.Second
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = time.Second
	}
	if c.WatchdogStall == 0 {
		c.WatchdogStall = 60 * time.Second
	} else if c.WatchdogStall < 0 {
		c.WatchdogStall = 0 // disabled
	}
	return c
}

// Server is the reese-serve HTTP service.
type Server struct {
	cfg      Config
	log      *slog.Logger
	metrics  *Metrics
	cache    *resultCache
	jobs     *jobRunner
	journal  *journal
	mux      *http.ServeMux
	rootCtx  context.Context
	stopRoot context.CancelFunc
	// gridParallel is the harness Options.Parallel each job runs with.
	gridParallel int

	httpRequests *counterFamily
	httpLatency  *histogramFamily
	// faultsTriaged/triageDuration instrument the SDC triage pass:
	// escaped trials re-run with attribution, by outcome, and the wall
	// time each replay cost.
	faultsTriaged  *counterFamily
	triageDuration *histogramFamily
	started        time.Time
	// shardMetrics is registered on first ShardMetrics() call (only
	// coordinators carry shard instruments).
	shardMetrics *ShardMetrics
}

// New builds a Server, replays the journal (if configured), and starts
// the worker pool. It fails only on an unreadable or unwritable journal
// path; a corrupt journal is not an error — replay keeps every record
// up to the first bad line.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	rootCtx, stopRoot := context.WithCancel(context.Background())
	m := NewMetrics()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		metrics:  m,
		cache:    newResultCache(cfg.CacheEntries, m),
		rootCtx:  rootCtx,
		stopRoot: stopRoot,
		started:  time.Now(),
		httpRequests: m.CounterFamily("reese_serve_http_requests_total",
			"HTTP requests, by route and status code.", "path", "code"),
		httpLatency: m.HistogramFamily("reese_serve_http_request_duration_seconds",
			"HTTP request latency, by route.", DefaultLatencyBounds, "path"),
		faultsTriaged: m.CounterFamily("reese_faults_triaged_total",
			"Escaped trials re-run by the SDC triage pass, by outcome.", "outcome"),
		triageDuration: m.HistogramFamily("reese_faults_triage_duration_seconds",
			"Wall time of one triage replay.", DefaultLatencyBounds),
	}
	s.gridParallel = runtime.GOMAXPROCS(0) / cfg.Workers
	if s.gridParallel < 1 {
		s.gridParallel = 1
	}

	var replayed []replayedJob
	var maxID uint64
	if cfg.JournalPath != "" {
		var err error
		if replayed, maxID, err = replayJournal(cfg.JournalPath); err == nil {
			s.journal, err = openJournal(cfg.JournalPath)
		}
		if err != nil {
			stopRoot()
			return nil, err
		}
	}

	s.jobs = newJobRunner(rootCtx, cfg, s.journal, m)
	s.jobs.nextID.Store(maxID)
	s.adoptJournal(replayed)

	s.metrics.Gauge("reese_serve_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	registerRuntimeMetrics(s.metrics)

	// Log the effective configuration (defaults applied) once at
	// startup, so an operator can read what the process is actually
	// running with without reverse-engineering flags and defaults.
	cfg.Logger.Info("reese-serve configured",
		"workers", cfg.Workers,
		"queue_depth", cfg.QueueDepth,
		"cache_entries", cfg.CacheEntries,
		"max_jobs", cfg.MaxJobs,
		"journal", cfg.JournalPath,
		"job_timeout", cfg.JobTimeout.String(),
		"max_timeout", cfg.MaxTimeout.String(),
		"max_retries", cfg.MaxRetries,
		"watchdog_stall", cfg.WatchdogStall.String(),
		"max_insts", cfg.Limits.MaxInsts,
		"grid_parallel", s.gridParallel)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.submitHandler("run")))
	mux.HandleFunc("POST /v1/figure", s.instrument("/v1/figure", s.submitHandler("figure")))
	mux.HandleFunc("POST /v1/faults", s.instrument("/v1/faults", s.submitHandler("faults")))
	mux.HandleFunc("POST /v1/faults/batch", s.instrument("/v1/faults/batch", s.handleBatch))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/trace/{key...}", s.instrument("/v1/jobs/{id}/trace", s.handleJobTrace))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobCancel))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// adoptJournal registers every replayed job and re-enqueues the
// unfinished ones, their run closures rebuilt from the journaled
// canonical request. A non-terminal record whose request no longer
// normalizes (e.g. a renamed workload) is adopted as failed rather than
// dropped — a replayed job must never silently vanish.
func (s *Server) adoptJournal(replayed []replayedJob) {
	var pending []*Job
	for _, rj := range replayed {
		var run runFunc
		if !rj.State.terminal() {
			_, _, r, err := s.prepareJob(rj.Kind, rj.Req)
			if err != nil {
				s.log.Warn("journal replay: cannot rebuild job", "job", rj.ID, "kind", rj.Kind, "err", err)
				rj.State = StateFailed
				rj.Cause = fmt.Sprintf("journal replay: cannot rebuild job: %v", err)
			} else {
				run = s.withCachePut(rj.Key, r)
			}
		}
		j := s.jobs.adoptReplayed(rj, run)
		if !rj.State.terminal() {
			pending = append(pending, j)
		}
	}
	if len(pending) > 0 {
		s.log.Info("journal replay: re-enqueueing unfinished jobs", "count", len(pending))
	}
	s.jobs.enqueueReplayed(pending)
}

// Handler returns the root handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Mount registers an extra handler on the server's mux with the usual
// request instrumentation — how cmd/reese-serve attaches the cluster
// coordinator endpoint without this package importing cluster.
func (s *Server) Mount(pattern string, h http.Handler) {
	route := pattern
	if i := strings.IndexByte(route, ' '); i >= 0 {
		route = route[i+1:]
	}
	s.mux.HandleFunc(pattern, s.instrument(route, h.ServeHTTP))
}

// ShardMetrics lazily registers and returns the cluster shard
// instruments; the coordinator records into them through the cluster
// package's structural hook interface.
func (s *Server) ShardMetrics() *ShardMetrics {
	if s.shardMetrics == nil {
		s.shardMetrics = NewShardMetrics(s.metrics)
	}
	return s.shardMetrics
}

// Shutdown drains gracefully: intake closes (new submits get 503),
// queued and running jobs are given until ctx expires to finish, then
// any stragglers are cancelled through the root context. A clean drain
// compacts the journal; an expired one kills it first, so the cancelled
// stragglers keep their last durable state and replay on restart —
// forced shutdown deliberately has crash semantics. Always call
// Shutdown once; it is what stops the worker goroutines.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.jobs.drain(ctx)
	if err != nil {
		s.log.Warn("drain expired; cancelling in-flight jobs", "err", err)
		s.journal.kill()
	}
	s.stopRoot()
	s.jobs.wg.Wait()
	if err == nil {
		s.jobs.compactJournal()
	}
	s.journal.close()
	return err
}

// Crash simulates a SIGKILL for the chaos harness: journal appends stop
// reaching disk immediately, every job context dies, and the worker
// pool exits — without compaction, without drain, without touching the
// on-disk journal. A Server built afterwards on the same JournalPath
// replays whatever had been acknowledged.
func (s *Server) Crash() {
	s.journal.kill()
	s.jobs.stopIntake()
	s.stopRoot()
	s.jobs.wg.Wait()
	s.journal.close()
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request logging, the per-route
// request counter, and the latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.httpRequests.With(route, fmt.Sprint(rec.code)).Inc()
		s.httpLatency.With(route).Observe(elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", rec.code, "dur_ms", elapsed.Milliseconds())
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, errorResponse{Error: err.Error()})
}

// writeUnavailable sheds load honestly: 503 with a Retry-After header
// (whole seconds, rounded up) and the same hint in milliseconds in the
// JSON envelope, so both curl-level and programmatic clients know when
// the queue is expected to have drained.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error, retryAfter time.Duration) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: err.Error(), RetryAfterMS: retryAfter.Milliseconds()})
}

// parseWait reads the ?wait= query (a Go duration, or bare seconds),
// capped at MaxWait. 0 means asynchronous.
func (s *Server) parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		var secs float64
		if _, serr := fmt.Sscanf(raw, "%g", &secs); serr != nil {
			return 0, fmt.Errorf("bad wait %q: %v", raw, err)
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d < 0 {
		return 0, fmt.Errorf("negative wait %q", raw)
	}
	if d > s.cfg.MaxWait {
		d = s.cfg.MaxWait
	}
	return d, nil
}

// parseTimeout reads the ?timeout= query bounding each attempt of the
// job (capped at Config.MaxTimeout by submit).
func (s *Server) parseTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad timeout %q", raw)
	}
	return d, nil
}

// badRequestError marks a prepareJob failure as the client's fault.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// maxRequestBody bounds a submit body; canonical machine configs are a
// few KB, so 4MB is generous.
const maxRequestBody = 4 << 20

// prepareJob normalizes a raw request body for the given kind into the
// canonical form that is journaled, the content address for the cache,
// and the run closure that executes it. It is the single path shared by
// live submits and journal replay, which is what makes replay sound:
// both rebuild the identical runFunc from the identical canonical
// bytes.
func (s *Server) prepareJob(kind string, body []byte) (key string, canonical json.RawMessage, run runFunc, err error) {
	switch kind {
	case "run":
		return prepare(kind, body, s.cfg.Limits, runSimulation)
	case "figure":
		return prepare(kind, body, s.cfg.Limits, s.runFigure)
	case "faults":
		return prepare(kind, body, s.cfg.Limits, s.runFaults)
	case "shard":
		return prepare(kind, body, s.cfg.Limits, s.runShard)
	}
	return "", nil, nil, fmt.Errorf("unknown job kind %q", kind)
}

// request is a job request type that canonicalizes itself under the
// server's limits.
type request[R any] interface {
	normalize(Limits) (R, error)
}

// prepare is prepareJob for one request type: decode → normalize →
// content address → canonical bytes, with the run closure bound to the
// normalized request. Decode and normalize failures are the client's
// fault (badRequestError, a 400); the rest are the server's (a 500).
func prepare[R request[R]](kind string, body []byte, lim Limits,
	runner func(context.Context, R, *atomic.Uint64) (jobOutput, error)) (string, json.RawMessage, runFunc, error) {
	var req R
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, nil, badRequestError{fmt.Errorf("decode request: %w", err)}
	}
	req, err := req.normalize(lim)
	if err != nil {
		return "", nil, nil, badRequestError{err}
	}
	key, err := cacheKey(kind, req)
	if err != nil {
		return "", nil, nil, err
	}
	canonical, err := json.Marshal(req)
	if err != nil {
		return "", nil, nil, err
	}
	run := func(ctx context.Context, progress *atomic.Uint64) (jobOutput, error) {
		return runner(ctx, req, progress)
	}
	return key, canonical, run, nil
}

// observeTriage is the harness.CampaignSpec.TriageObserver hook that
// records the server's triage metrics. It is called from campaign
// worker goroutines; the metric primitives are atomic, so it is safe
// as-is.
func (s *Server) observeTriage(outcome string, seconds float64) {
	s.faultsTriaged.With(outcome).Inc()
	s.triageDuration.With().Observe(seconds)
}

// withCachePut wraps a run closure so a successful result lands in the
// content-addressed cache.
func (s *Server) withCachePut(key string, run runFunc) runFunc {
	return func(ctx context.Context, progress *atomic.Uint64) (jobOutput, error) {
		out, err := run(ctx, progress)
		if err == nil {
			s.cache.put(key, out.payload)
		}
		return out, err
	}
}

// enqueue prepares a job from a raw request body and either answers it
// from the content-addressed result cache (a finished job, cached) or
// submits it. The error is a badRequestError, errQueueFull, errDraining,
// or an internal failure.
func (s *Server) enqueue(kind string, body []byte, timeout time.Duration) (j *Job, cached bool, err error) {
	key, canonical, run, err := s.prepareJob(kind, body)
	if err != nil {
		return nil, false, err
	}
	if payload, ok := s.cache.get(key); ok {
		return s.jobs.complete(kind, key, payload), true, nil
	}
	j, err = s.jobs.submit(kind, key, canonical, timeout, s.withCachePut(key, run))
	return j, false, err
}

// retryHint reports whether a submit error sheds load and, if so, when
// to retry: the queue's expected drain time when it is full; while
// shutting down, a long hint that tells the client to find another
// replica rather than wait for this one's queue.
func (s *Server) retryHint(err error) (time.Duration, bool) {
	switch {
	case errors.Is(err, errQueueFull):
		return s.jobs.retryAfter(), true
	case errors.Is(err, errDraining):
		return 30 * time.Second, true
	}
	return 0, false
}

// submitHandler builds the POST handler for one job kind: decode +
// normalize, consult the cache, enqueue on miss, then either return 202
// immediately or wait.
//
// Jobs always derive from the server root context (never the request's:
// a ?wait= that expires returns 202 and the job must survive the
// handler returning). Interactive cancellation is explicit instead:
// waitAndReply calls Cancel when a waiting submitter disconnects,
// because nobody is left to read the answer. Asynchronous jobs are
// bounded only by ?timeout=, DELETE, and Shutdown.
func (s *Server) submitHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		wait, err := s.parseWait(r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		timeout, err := s.parseTimeout(r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
			return
		}
		j, cached, err := s.enqueue(kind, body, timeout)
		var bad badRequestError
		if after, shed := s.retryHint(err); shed {
			s.writeUnavailable(w, err, after)
			return
		} else if errors.As(err, &bad) {
			s.writeError(w, http.StatusBadRequest, err)
			return
		} else if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		if cached {
			s.log.Info("job served from cache", "job", j.ID, "kind", kind, "key", j.cacheKey[:12])
			s.writeJSON(w, http.StatusOK, j.snapshot())
			return
		}
		s.log.Info("job queued", "job", j.ID, "kind", kind, "key", j.cacheKey[:12], "wait", wait.String())
		if wait == 0 {
			s.writeJSON(w, http.StatusAccepted, j.snapshot())
			return
		}
		s.waitAndReply(w, r, j, wait, true)
	}
}

// waitAndReply blocks until the job finishes, the wait expires (reply
// with in-flight status), or — when interactive — the client vanishes
// (cancel the job; there is nobody to reply to).
func (s *Server) waitAndReply(w http.ResponseWriter, r *http.Request, j *Job, wait time.Duration, interactive bool) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-j.done:
		v := j.snapshot()
		code := http.StatusOK
		if v.State == StateFailed {
			code = http.StatusInternalServerError
		}
		s.writeJSON(w, code, v)
	case <-timer.C:
		s.writeJSON(w, http.StatusAccepted, j.snapshot())
	case <-r.Context().Done():
		if interactive {
			s.log.Info("client disconnected; cancelling job", "job", j.ID)
			j.Cancel()
			<-j.done
		}
	}
}

// runSimulation executes one RunRequest — the reese-sim code path with
// a context-aware cycle loop and the watchdog's progress heartbeat.
func runSimulation(ctx context.Context, req RunRequest, progress *atomic.Uint64) (jobOutput, error) {
	spec, ok := workload.ByName(req.Workload)
	if !ok {
		return jobOutput{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	prog, err := spec.Build(req.Iters)
	if err != nil {
		return jobOutput{}, err
	}
	var injector fault.Injector = fault.None{}
	if req.FaultAt > 0 {
		injector = &fault.AtSeq{Seq: req.FaultAt, Bit: req.FaultBit}
	}
	cpu, err := pipeline.New(*req.Machine, prog, injector)
	if err != nil {
		return jobOutput{}, err
	}
	cpu.SetProgress(progress)
	res, err := cpu.RunContext(ctx, req.Insts)
	if err != nil {
		return jobOutput{}, err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{payload: payload, insts: res.Committed}, nil
}

// runFigure executes one FigureRequest.
func (s *Server) runFigure(ctx context.Context, req FigureRequest, progress *atomic.Uint64) (jobOutput, error) {
	opt := harness.Options{Insts: req.Insts, Parallel: s.gridParallel, Ctx: ctx, Progress: progress}
	var payload FigurePayload
	var insts uint64
	switch req.Figure {
	case "2", "3", "4", "5":
		f := map[string]func(harness.Options) (*harness.FigureResult, error){
			"2": harness.Figure2, "3": harness.Figure3, "4": harness.Figure4, "5": harness.Figure5,
		}[req.Figure]
		fig, err := f(opt)
		if err != nil {
			return jobOutput{}, err
		}
		payload = FigurePayload{Figure: fig, Table: fig.Table()}
		for _, c := range fig.Cells {
			insts += c.Result.Committed
		}
	case "6":
		rows, err := harness.Figure6(opt)
		if err != nil {
			return jobOutput{}, err
		}
		payload = FigurePayload{Rows: rows, Table: harness.Figure6Table(rows)}
		insts = req.Insts * uint64(len(rows)) * 30 // 4 sub-figures × ~30 cells, approximate
	case "7":
		points, err := harness.Figure7(opt)
		if err != nil {
			return jobOutput{}, err
		}
		payload = FigurePayload{Points: points, Table: harness.Figure7Table(points)}
		insts = req.Insts * uint64(len(points)) * 18
	default:
		return jobOutput{}, fmt.Errorf("unknown figure %q", req.Figure)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{payload: raw, insts: insts}, nil
}

// runFaults executes one FaultsRequest: the harness's REESE-vs-baseline
// expansion of the request (harness.CampaignAll), each campaign run as
// one full-plan shard through the core shard jobs use. Escaped trials
// ride in the payload, their traces keyed "reportIdx/trialIdx".
func (s *Server) runFaults(ctx context.Context, req FaultsRequest, progress *atomic.Uint64) (jobOutput, error) {
	var payload FaultsPayload
	n := 0
	table, reports, err := harness.CampaignAll(req.campaignSpec(), func(spec harness.CampaignSpec) (*harness.CampaignReport, error) {
		rep, traces, err := s.runCampaign(ctx, spec, progress, fmt.Sprintf("%d/", n))
		n++
		if err != nil {
			return nil, err
		}
		for _, t := range rep.Trials {
			if t.Triage != nil {
				payload.Escapes = append(payload.Escapes, t)
			}
		}
		if payload.Traces == nil {
			payload.Traces = traces
		} else {
			maps.Copy(payload.Traces, traces)
		}
		return rep, nil
	})
	if err != nil {
		return jobOutput{}, err
	}
	payload.Reports, payload.Table = reports, table
	var insts uint64
	var perReport strings.Builder
	for i := range reports {
		insts += reports[i].Injected * reports[i].GoldenInsts
		perReport.WriteString(reports[i].Table())
		perReport.WriteByte('\n')
	}
	if req.Workload != "" {
		// One workload reads better as its two campaigns' own tables.
		payload.Table = perReport.String()
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{payload: raw, insts: insts}, nil
}

// runShard executes one ShardSpec: the [offset, offset+count) slice of
// the full campaign plan. The payload carries the per-trial records
// alongside the report (the report's own JSON form excludes them) so
// the coordinator can reconstitute the full trial log after the merge,
// and a digest so it can tell a payload damaged in flight from a
// healthy one.
func (s *Server) runShard(ctx context.Context, req ShardSpec, progress *atomic.Uint64) (jobOutput, error) {
	rep, traces, err := s.runCampaign(ctx, req.campaignSpec(), progress, "")
	if err != nil {
		return jobOutput{}, err
	}
	p := ShardPayload{Report: *rep, Trials: rep.Trials, Traces: traces}
	if p.Digest, err = p.CanonicalDigest(); err != nil {
		return jobOutput{}, err
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{payload: raw, insts: rep.Injected * rep.GoldenInsts}, nil
}

// runCampaign is the core of faults and shard jobs: one campaign on the
// job's share of the worker pool, with triage replays observed in the
// metrics and the Perfetto trace of every triaged trial collected under
// keyPrefix plus the trial's global plan index (the index is what the
// cluster coordinator knows a trial by after the merge).
func (s *Server) runCampaign(ctx context.Context, spec harness.CampaignSpec, progress *atomic.Uint64,
	keyPrefix string) (*harness.CampaignReport, map[string]json.RawMessage, error) {
	spec.TriageObserver = s.observeTriage
	rep, err := harness.Campaign(spec, harness.Options{Parallel: s.gridParallel, Ctx: ctx, Progress: progress})
	if err != nil {
		return nil, nil, err
	}
	var traces map[string]json.RawMessage
	for _, t := range rep.Trials {
		if t.Triage == nil || len(t.Triage.Trace) == 0 {
			continue
		}
		if traces == nil {
			traces = make(map[string]json.RawMessage)
		}
		traces[keyPrefix+strconv.Itoa(t.Index)] = json.RawMessage(t.Triage.Trace)
	}
	return rep, traces, nil
}

// handleBatch serves POST /v1/faults/batch: several shards accepted (or
// rejected) independently in one round trip. The response is always
// 200 with positional per-shard items — a full queue rejects shard i
// with the usual Retry-After hint inside item i rather than failing
// the whole batch, so the coordinator can hold back just the overflow.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	timeout, err := s.parseTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Shards) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Shards) > maxBatchShards {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d shards exceeds limit %d", len(req.Shards), maxBatchShards))
		return
	}
	resp := BatchResponse{Items: make([]BatchItem, len(req.Shards))}
	for i, shard := range req.Shards {
		item := &resp.Items[i]
		raw, err := json.Marshal(shard)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		// Idempotent resubmission: a shard this worker already ran is
		// answered from the content-addressed cache, which is what makes
		// reassignment double-count-proof.
		j, _, err := s.enqueue("shard", raw, timeout)
		if err != nil {
			item.Error = err.Error()
			if after, shed := s.retryHint(err); shed {
				item.RetryAfterMS = after.Milliseconds()
			}
			continue
		}
		v := j.snapshot()
		item.Job = &v
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleReadyz serves GET /readyz — readiness, as distinct from
// /healthz liveness: 503 while the journal replay backlog is still
// re-enqueueing or a graceful drain has begun, 200 otherwise. The
// body always reports queue depth, so a coordinator can prefer the
// least-loaded ready worker.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.jobs.isDraining()
	replaying := s.jobs.replayBacklog.Load()
	body := map[string]any{
		"ready":          !draining && replaying == 0,
		"draining":       draining,
		"replay_backlog": replaying,
		"queue_depth":    s.jobs.queued.Load(),
		"queue_capacity": s.cfg.QueueDepth,
		"jobs_running":   s.jobs.running.Load(),
	}
	code := http.StatusOK
	if draining || replaying > 0 {
		code = http.StatusServiceUnavailable
		if draining {
			w.Header().Set("Retry-After", "30")
		} else {
			w.Header().Set("Retry-After", "1")
		}
	}
	s.writeJSON(w, code, body)
}

// handleJobGet serves GET /v1/jobs/{id} (?wait= to block).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	wait, err := s.parseWait(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if wait == 0 {
		v := j.snapshot()
		code := http.StatusOK
		if !v.State.terminal() {
			code = http.StatusAccepted
		}
		s.writeJSON(w, code, v)
		return
	}
	// A poller disconnecting must NOT cancel someone else's job.
	s.waitAndReply(w, r, j, wait, false)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace/{key...}: one triaged
// trial's Perfetto trace blob, extracted from the finished job's result
// payload. Keys are "reportIdx/trialIdx" for faults jobs and the global
// trial index for shard jobs — exactly the keys of the payload's traces
// map, which is why the route wildcard spans path segments.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	v := j.snapshot()
	if v.State != StateDone || len(v.Result) == 0 {
		s.writeError(w, http.StatusConflict, fmt.Errorf("job %s has no result (state %s)", v.ID, v.State))
		return
	}
	var res struct {
		Traces map[string]json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(v.Result, &res); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("decode job result: %w", err))
		return
	}
	key := r.PathValue("key")
	blob, ok := res.Traces[key]
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s has no trace %q (the trial was not triaged, or the key is wrong)", v.ID, key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleJobCancel serves DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	<-j.done
	s.writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobList serves GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.jobs.list())
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.stats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"uptime_s":     time.Since(s.started).Seconds(),
		"jobs_queued":  s.jobs.queued.Load(),
		"jobs_running": s.jobs.running.Load(),
		"cache_hits":   hits,
		"cache_misses": misses,
		"journal":      s.cfg.JournalPath,
		"workloads":    workload.Names(),
	})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.Render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}
