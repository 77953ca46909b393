package server

// Self-healing asynchronous job machinery. Every simulation request
// becomes a Job that moves queued → running → {done, failed, canceled},
// with a retrying detour between failed attempts. A bounded channel is
// the queue (submits fail fast with 503 + Retry-After when it is full —
// backpressure instead of unbounded memory growth) and a fixed worker
// pool drains it, mirroring harness's pool discipline.
//
// The failure story, layer by layer:
//
//   - Containment: each attempt runs under recover(); a panic becomes a
//     structured failure (stack captured in the attempt record) instead
//     of a process crash.
//   - Deadlines: every attempt is bounded by a context deadline —
//     request-supplied via ?timeout=, capped by Config.MaxTimeout,
//     defaulting to Config.JobTimeout.
//   - Watchdog: a progress heartbeat (committed instructions sampled
//     from the running simulation via pipeline.CPU.SetProgress) detects
//     hung attempts and cancels them as retryable.
//   - Retry: transient failures (panic, deadline, watchdog kill) are
//     retried up to Config.MaxRetries times with exponential backoff
//     and jitter; the attempt history, last cause, and next-retry time
//     are visible in GET /v1/jobs/{id}.
//   - Durability: accepted submits and every state transition are
//     appended to the write-ahead journal (journal.go) before they are
//     acknowledged, so a restart replays unfinished jobs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"reese/internal/obs"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateRetrying JobState = "retrying"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// jobOutput is what a job's runner produces: the result payload served
// from GET /v1/jobs/{id}, plus the committed-instruction count feeding
// the sim-throughput counter.
type jobOutput struct {
	payload json.RawMessage
	insts   uint64
}

// runFunc executes a job attempt. progress must receive committed-
// instruction deltas so the watchdog can tell slow from hung.
type runFunc func(ctx context.Context, progress *atomic.Uint64) (jobOutput, error)

// maxStackBytes bounds the panic stack stored per attempt record.
const maxStackBytes = 8 << 10

// Job is one queued simulation request.
type Job struct {
	ID   string
	Kind string

	runner *jobRunner
	// run executes one attempt of the simulation.
	run runFunc
	// cacheKey is the request's content address ("" = uncacheable).
	cacheKey string
	// rawReq is the canonical (normalized) request, journaled at submit
	// so a restarted server can rebuild run.
	rawReq json.RawMessage
	// timeout bounds each attempt; maxRetries bounds transient redos.
	timeout    time.Duration
	maxRetries int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	// progress accumulates committed instructions across all attempts —
	// the watchdog heartbeat, also exposed in JobView.
	progress atomic.Uint64

	mu        sync.Mutex
	state     JobState
	created   time.Time
	started   time.Time
	finished  time.Time
	cached    bool
	replayed  bool
	payload   json.RawMessage
	errMsg    string
	attempts  []AttemptView
	nextRetry time.Time
	finalized bool
	// attemptCancel aborts the in-flight attempt only (the job context
	// survives for the retry); watchdogKilled marks why.
	attemptCancel  context.CancelFunc
	watchdogKilled bool
	lastProgress   uint64
	lastProgressAt time.Time
	// spans is the job's trace: a root span covering submit→terminal
	// with a child per phase (queue-wait, each attempt, backoff, journal
	// appends). waitSpan/backoffSpan point at the currently open phase.
	// All three are guarded by mu; snapshots deep-Clone.
	spans       *obs.Span
	waitSpan    *obs.Span
	backoffSpan *obs.Span
}

// snapshot returns a consistent JobView of the current state.
func (j *Job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Kind:     j.Kind,
		State:    j.state,
		Created:  j.created,
		Cached:   j.cached,
		Replayed: j.replayed,
		Error:    j.errMsg,
		Result:   j.payload,
		Attempt:  len(j.attempts),
		Progress: j.progress.Load(),
	}
	if len(j.attempts) > 0 {
		v.Attempts = append([]AttemptView(nil), j.attempts...)
		for i := len(j.attempts) - 1; i >= 0; i-- {
			if c := j.attempts[i].Cause; c != "" {
				v.LastCause = c
				break
			}
		}
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state == StateRetrying && !j.nextRetry.IsZero() {
		t := j.nextRetry
		v.NextRetry = &t
	}
	if j.spans != nil {
		v.Spans = j.spans.Clone()
	}
	return v
}

// Cancel requests cancellation: a queued job is finished immediately; a
// running attempt's context chain is cancelled and the worker records
// the terminal state when the cycle loop notices; a retrying job's
// pending retry is abandoned.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued && !j.finalized
	j.mu.Unlock()
	if queued {
		j.runner.finalize(j, StateCanceled, context.Canceled.Error(), nil)
	}
}

// errQueueFull is returned by submit when the bounded queue is at
// capacity; handlers translate it to 503 + Retry-After.
var errQueueFull = errors.New("server: job queue full")

// errDraining is returned by submit after Shutdown began; distinct from
// errQueueFull so clients can tell backpressure from termination.
var errDraining = errors.New("server: shutting down, not accepting new jobs")

// panicError is a contained worker panic, carrying the recovered value
// and the goroutine stack for the job record.
type panicError struct {
	val   string
	stack string
}

func (e *panicError) Error() string { return "panic: " + e.val }

// jobRunner owns the queue, the worker pool, the watchdog, the retry
// scheduler, and the job registry.
type jobRunner struct {
	queue   chan *Job
	rootCtx context.Context
	cfg     Config // defaults applied
	journal *journal
	log     *slog.Logger

	mu       sync.Mutex
	draining bool
	drainNow chan struct{} // closed at drain: pending retries fire immediately
	jobs     map[string]*Job
	order    []string // insertion order, for bounded retention
	nextID   atomic.Uint64
	wg       sync.WaitGroup // workers
	liveWG   sync.WaitGroup // jobs, from accepted submit to terminal state
	// pendingRetries counts retry/replay goroutines that may still place
	// a job on the queue; workers drain until it reaches zero at exit.
	pendingRetries atomic.Int64
	// replayBacklog counts journal-replayed jobs not yet back on the
	// queue; /readyz reports not-ready until it reaches zero, so a
	// cluster coordinator never assigns shards to a still-recovering
	// worker.
	replayBacklog atomic.Int64

	queued    atomic.Int64
	running   atomic.Int64
	submitted *counterFamily
	completed *counterFamily
	simInsts  *Counter
	fail      *failureCounters
	// queueWait observes how long each run of a job sat queued before a
	// worker picked it up; attemptSecs observes attempt wall time by
	// outcome (ok, panic, watchdog, deadline, canceled, error).
	queueWait   *Histogram
	attemptSecs *histogramFamily

	// svcEWMA tracks mean attempt seconds, feeding the Retry-After
	// estimate on 503 (load shedding with an honest hint).
	svcMu   sync.Mutex
	svcEWMA float64
}

// newJobRunner starts the worker pool and (when configured) the
// watchdog. rootCtx is the server's lifetime: cancelling it aborts
// every job and ultimately stops the workers.
func newJobRunner(rootCtx context.Context, cfg Config, jl *journal, m *Metrics) *jobRunner {
	r := &jobRunner{
		queue:     make(chan *Job, cfg.QueueDepth),
		rootCtx:   rootCtx,
		cfg:       cfg,
		journal:   jl,
		log:       cfg.Logger,
		drainNow:  make(chan struct{}),
		jobs:      make(map[string]*Job),
		submitted: m.CounterFamily("reese_serve_jobs_submitted_total", "Jobs accepted, by kind.", "kind"),
		completed: m.CounterFamily("reese_serve_jobs_completed_total", "Jobs finished, by kind and terminal state.", "kind", "state"),
		simInsts:  m.Counter("reese_serve_sim_insts_total", "Committed simulated instructions across all jobs (rate() of this is sim-insts/s)."),
		fail:      newFailureCounters(m),
		queueWait: m.HistogramFamily("reese_serve_job_queue_wait_seconds",
			"Time a job spent queued before a worker picked it up (per attempt cycle).", DefaultLatencyBounds).With(),
		attemptSecs: m.HistogramFamily("reese_serve_job_attempt_seconds",
			"Job attempt wall time, by outcome.", DefaultLatencyBounds, "outcome"),
	}
	m.Gauge("reese_serve_jobs_queued", "Jobs waiting in the queue.", func() float64 { return float64(r.queued.Load()) })
	m.Gauge("reese_serve_jobs_running", "Jobs currently simulating.", func() float64 { return float64(r.running.Load()) })
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	if cfg.WatchdogStall > 0 {
		go r.watchdog()
	}
	return r
}

// journalAppend logs append failures instead of propagating them: a
// sick disk degrades durability, not availability.
func (r *jobRunner) journalAppend(rec journalRecord) {
	if err := r.journal.append(rec); err != nil {
		r.log.Error("journal append", "type", rec.T, "job", rec.Job, "err", err)
	}
}

// submit registers a job and enqueues it. timeout bounds each attempt
// (0 selects the config default; the cap always applies). The returned
// job is already registered under its ID and journaled.
func (r *jobRunner) submit(kind, cacheKey string, rawReq json.RawMessage, timeout time.Duration, run runFunc) (*Job, error) {
	if timeout <= 0 {
		timeout = r.cfg.JobTimeout
	}
	if timeout > r.cfg.MaxTimeout {
		timeout = r.cfg.MaxTimeout
	}
	j := &Job{
		ID:         fmt.Sprintf("j-%06d", r.nextID.Add(1)),
		Kind:       kind,
		runner:     r,
		run:        run,
		cacheKey:   cacheKey,
		rawReq:     rawReq,
		timeout:    timeout,
		maxRetries: r.cfg.MaxRetries,
		done:       make(chan struct{}),
		state:      StateQueued,
		created:    time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(r.rootCtx)
	j.spans = obs.NewSpan("job "+kind, j.created)

	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		j.cancel()
		return nil, errDraining
	}
	// Journal the submit before the job becomes runnable, so a start
	// record can never precede its submit in the log. The fsync happens
	// under the registry lock: throughput bows to durability here.
	jstart := time.Now()
	r.journalAppend(journalRecord{T: recSubmit, Job: j.ID, Kind: kind, Key: cacheKey,
		Req: rawReq, TimeoutMS: timeout.Milliseconds()})
	if r.journal != nil {
		j.spans.AddChild("journal-append submit", jstart, time.Now(), "")
	}
	j.waitSpan = j.spans.StartChild("queue-wait", time.Now())
	select {
	case r.queue <- j:
	default:
		r.mu.Unlock()
		// The submit record is already durable; mark the job canceled so
		// a replay does not resurrect work the client was told got 503.
		r.journalAppend(journalRecord{T: recCancel, Job: j.ID, Cause: errQueueFull.Error()})
		j.cancel()
		return nil, errQueueFull
	}
	r.liveWG.Add(1)
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	r.mu.Unlock()

	r.queued.Add(1)
	r.submitted.With(kind).Inc()
	return j, nil
}

// complete registers an already-finished job (a cache hit): it never
// touches the queue, is immediately terminal, and is not journaled
// (there is nothing to recover).
func (r *jobRunner) complete(kind, cacheKey string, payload json.RawMessage) *Job {
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", r.nextID.Add(1)),
		Kind:      kind,
		runner:    r,
		cacheKey:  cacheKey,
		cancel:    func() {},
		done:      make(chan struct{}),
		state:     StateDone,
		created:   time.Now(),
		finished:  time.Now(),
		cached:    true,
		finalized: true,
		payload:   payload,
	}
	j.spans = obs.NewSpan("job "+kind, j.created)
	j.spans.AddChild("cache-lookup", j.created, j.finished, "hit")
	j.spans.Finish(j.finished, string(StateDone))
	close(j.done)
	r.mu.Lock()
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	r.mu.Unlock()
	r.submitted.With(kind).Inc()
	r.completed.With(kind, string(StateDone)).Inc()
	return j
}

// adoptReplayed registers a journal-replayed job. Non-terminal jobs are
// re-enqueued (the caller provides the rebuilt run); terminal jobs keep
// their journaled state — without the result payload, which is not
// persisted: an identical resubmission recomputes it deterministically.
func (r *jobRunner) adoptReplayed(rj replayedJob, run runFunc) *Job {
	j := &Job{
		ID:         rj.ID,
		Kind:       rj.Kind,
		runner:     r,
		run:        run,
		cacheKey:   rj.Key,
		rawReq:     rj.Req,
		timeout:    rj.Timeout,
		maxRetries: r.cfg.MaxRetries,
		done:       make(chan struct{}),
		created:    rj.Created,
		replayed:   true,
	}
	if j.timeout <= 0 {
		j.timeout = r.cfg.JobTimeout
	}
	if rj.State.terminal() {
		j.state = rj.State
		j.errMsg = rj.Cause
		j.finished = rj.Created
		j.finalized = true
		j.cancel = func() {}
		close(j.done)
	} else {
		// Whatever the job was mid-flight — queued, running, retrying —
		// it restarts from the queue with a fresh retry budget.
		j.state = StateQueued
		j.ctx, j.cancel = context.WithCancel(r.rootCtx)
		// The pre-crash span tree is gone with the process; start a fresh
		// one marking where it came from.
		now := time.Now()
		j.spans = obs.NewSpan("job "+rj.Kind, now)
		j.spans.AddChild("journal-replay", rj.Created, now, "")
		j.waitSpan = j.spans.StartChild("queue-wait", now)
	}
	r.mu.Lock()
	if !j.state.terminal() {
		r.liveWG.Add(1)
	}
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.mu.Unlock()
	return j
}

// evictLocked drops the oldest terminal jobs once the registry exceeds
// maxJobs, so a long-lived server's job index stays bounded. Live jobs
// are never evicted.
func (r *jobRunner) evictLocked() {
	for len(r.jobs) > r.cfg.MaxJobs {
		evicted := false
		for i, id := range r.order {
			j, ok := r.jobs[id]
			if !ok {
				continue
			}
			j.mu.Lock()
			terminal := j.state.terminal()
			j.mu.Unlock()
			if terminal {
				delete(r.jobs, id)
				r.order = append(r.order[:i:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is live; allow temporary overshoot
		}
	}
}

// get looks a job up by ID.
func (r *jobRunner) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list snapshots every registered job, oldest first.
func (r *jobRunner) list() []JobView {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := r.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	r.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.snapshot()
	}
	return views
}

// worker drains the queue until the server root context dies AND no job
// or pending retry can still reach the queue.
func (r *jobRunner) worker() {
	defer r.wg.Done()
	for {
		select {
		case j := <-r.queue:
			r.queued.Add(-1)
			r.runJob(j)
		case <-r.rootCtx.Done():
			// Shutdown or crash: drain stragglers (their cancelled
			// contexts finalize them in microseconds), then leave once no
			// retry goroutine can still land a job on the queue.
			for {
				select {
				case j := <-r.queue:
					r.queued.Add(-1)
					r.runJob(j)
				default:
					if r.pendingRetries.Load() == 0 {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
}

// finalize records a job's terminal state exactly once: journal, done
// channel, completion counter, live-job accounting. Safe to race — the
// first caller wins, later calls are no-ops.
func (r *jobRunner) finalize(j *Job, state JobState, errMsg string, out *jobOutput) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	j.state = state
	j.finished = time.Now()
	j.errMsg = errMsg
	j.nextRetry = time.Time{}
	if out != nil {
		j.payload = out.payload
	}
	if j.waitSpan != nil {
		j.waitSpan.Finish(j.finished, "")
		j.waitSpan = nil
	}
	if j.backoffSpan != nil {
		j.backoffSpan.Finish(j.finished, "")
		j.backoffSpan = nil
	}
	if j.spans != nil {
		j.spans.Finish(j.finished, string(state))
	}
	attempts := len(j.attempts)
	j.mu.Unlock()

	if out != nil {
		r.simInsts.Add(out.insts)
	}
	switch state {
	case StateDone:
		r.journalAppend(journalRecord{T: recDone, Job: j.ID, Attempt: attempts})
	case StateFailed:
		r.journalAppend(journalRecord{T: recFail, Job: j.ID, Attempt: attempts, Cause: errMsg})
	case StateCanceled:
		r.journalAppend(journalRecord{T: recCancel, Job: j.ID, Cause: errMsg})
	}
	r.completed.With(j.Kind, string(state)).Inc()
	j.cancel() // release the context chain
	close(j.done)
	r.liveWG.Done()
}

// runJob executes one attempt of a job and either finalizes it or
// schedules a retry.
func (r *jobRunner) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued || j.finalized {
		// Cancelled while queued; whoever cancelled already finalized.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	now := time.Now()
	if j.started.IsZero() {
		j.started = now
	}
	attemptNo := len(j.attempts) + 1
	actx, acancel := context.WithTimeout(j.ctx, j.timeout)
	j.attemptCancel = acancel
	j.watchdogKilled = false
	j.lastProgress = j.progress.Load()
	j.lastProgressAt = now
	j.attempts = append(j.attempts, AttemptView{Number: attemptNo, Started: now})
	if j.waitSpan != nil {
		j.waitSpan.Finish(now, "")
		r.queueWait.Observe(j.waitSpan.Duration(now).Seconds())
		j.waitSpan = nil
	}
	var attSpan *obs.Span
	if j.spans != nil {
		attSpan = j.spans.StartChild(fmt.Sprintf("attempt %d", attemptNo), now)
	}
	j.mu.Unlock()

	r.journalAppend(journalRecord{T: recStart, Job: j.ID, Attempt: attemptNo})
	r.running.Add(1)
	out, err := r.runAttempt(j, actx, attemptNo)
	acancel()
	r.running.Add(-1)
	finished := time.Now()
	r.observeService(finished.Sub(now))

	j.mu.Lock()
	watchdogKilled := j.watchdogKilled
	j.attemptCancel = nil
	a := &j.attempts[attemptNo-1]
	t := finished
	a.Finished = &t
	j.mu.Unlock()

	closeAttempt := func(cause, stack string) {
		j.mu.Lock()
		j.attempts[attemptNo-1].Cause = cause
		j.attempts[attemptNo-1].Stack = stack
		j.mu.Unlock()
	}

	// Classify the attempt once; the outcome labels the attempt span and
	// the latency histogram, and drives the retry decision below.
	var pe *panicError
	outcome := "ok"
	switch {
	case err == nil:
	case errors.As(err, &pe):
		outcome = "panic"
	case j.ctx.Err() != nil:
		outcome = "canceled"
	case watchdogKilled:
		outcome = "watchdog"
	case errors.Is(err, context.DeadlineExceeded):
		outcome = "deadline"
	default:
		outcome = "error"
	}
	if attSpan != nil {
		j.mu.Lock()
		attSpan.Finish(finished, outcome)
		j.mu.Unlock()
	}
	r.attemptSecs.With(outcome).Observe(finished.Sub(now).Seconds())

	switch outcome {
	case "ok":
		r.finalize(j, StateDone, "", &out)
	case "panic":
		r.fail.panicked.Inc()
		cause := pe.Error()
		closeAttempt(cause, pe.stack)
		r.retryOrFail(j, attemptNo, cause)
	case "canceled":
		// The whole job was cancelled (DELETE, disconnected waiter,
		// shutdown) — terminal, never retried.
		closeAttempt(err.Error(), "")
		r.finalize(j, StateCanceled, err.Error(), nil)
	case "watchdog":
		r.fail.watchdogKills.Inc()
		cause := fmt.Sprintf("watchdog: no progress for %s at %d committed insts",
			r.cfg.WatchdogStall, j.progress.Load())
		closeAttempt(cause, "")
		r.retryOrFail(j, attemptNo, cause)
	case "deadline":
		r.fail.deadlineExceeded.Inc()
		cause := fmt.Sprintf("deadline: attempt exceeded %s: %v", j.timeout, err)
		closeAttempt(cause, "")
		r.retryOrFail(j, attemptNo, cause)
	default:
		// A non-transient simulation error (bad workload, config, …):
		// retrying cannot help.
		closeAttempt(err.Error(), "")
		r.finalize(j, StateFailed, err.Error(), nil)
	}
}

// runAttempt is the contained execution of one attempt: a panic in the
// simulation (or the chaos hook) is converted into a *panicError
// instead of unwinding the worker goroutine.
func (r *jobRunner) runAttempt(j *Job, ctx context.Context, attempt int) (out jobOutput, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := string(debug.Stack())
			if len(stack) > maxStackBytes {
				stack = stack[:maxStackBytes] + "\n... (truncated)"
			}
			err = &panicError{val: fmt.Sprint(p), stack: stack}
			r.log.Error("job attempt panicked", "job", j.ID, "attempt", attempt, "panic", p)
		}
	}()
	if r.cfg.BeforeAttempt != nil {
		r.cfg.BeforeAttempt(ctx, j.ID, j.Kind, attempt)
	}
	// A dead context means the attempt was aborted before (or while) the
	// hook ran — never report success built on a cancelled run.
	if cerr := ctx.Err(); cerr != nil {
		return jobOutput{}, cerr
	}
	return j.run(ctx, &j.progress)
}

// retryOrFail schedules another attempt after a transient failure, or
// finalizes the job when the retry budget is spent.
func (r *jobRunner) retryOrFail(j *Job, attemptNo int, cause string) {
	if attemptNo > j.maxRetries {
		r.finalize(j, StateFailed,
			fmt.Sprintf("%s (attempt %d of %d, retries exhausted)", cause, attemptNo, j.maxRetries+1), nil)
		return
	}
	delay := backoffDelay(r.cfg.RetryBackoff, r.cfg.RetryBackoffMax, attemptNo)
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.state = StateRetrying
	j.errMsg = cause
	j.nextRetry = time.Now().Add(delay)
	if j.spans != nil {
		j.backoffSpan = j.spans.StartChild(fmt.Sprintf("backoff %d", attemptNo), time.Now())
	}
	j.mu.Unlock()
	r.fail.retried.Inc()
	r.journalAppend(journalRecord{T: recRetry, Job: j.ID, Attempt: attemptNo, Cause: cause})
	r.log.Warn("job attempt failed; retrying", "job", j.ID, "attempt", attemptNo, "cause", cause, "backoff", delay.String())
	r.scheduleRetry(j, delay)
}

// backoffDelay is exponential backoff with up-to-50% jitter: base·2^(n-1)
// capped at max, then stretched by [1.0, 1.5) so synchronized failures
// do not thundering-herd the queue.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// scheduleRetry re-enqueues j after delay. Drain flushes pending
// retries immediately (no point sitting out a backoff while the server
// waits to exit); a cancelled job abandons its retry.
func (r *jobRunner) scheduleRetry(j *Job, delay time.Duration) {
	r.pendingRetries.Add(1)
	r.mu.Lock()
	drainNow := r.drainNow
	if r.draining {
		delay = 0
	}
	r.mu.Unlock()
	go func() {
		defer r.pendingRetries.Add(-1)
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-drainNow:
		case <-j.ctx.Done():
			r.finalize(j, StateCanceled, context.Cause(j.ctx).Error(), nil)
			return
		}
		j.mu.Lock()
		if j.finalized {
			j.mu.Unlock()
			return
		}
		j.state = StateQueued
		j.nextRetry = time.Time{}
		now := time.Now()
		if j.backoffSpan != nil {
			j.backoffSpan.Finish(now, "")
			j.backoffSpan = nil
		}
		if j.spans != nil {
			j.waitSpan = j.spans.StartChild("queue-wait", now)
		}
		j.mu.Unlock()
		select {
		case r.queue <- j:
			r.queued.Add(1)
		case <-j.ctx.Done():
			r.finalize(j, StateCanceled, context.Cause(j.ctx).Error(), nil)
		}
	}()
}

// enqueueReplayed feeds journal-replayed jobs back onto the queue in
// submission order, off the construction path (the queue may be
// shallower than the replay backlog; workers drain it as we go).
func (r *jobRunner) enqueueReplayed(jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	r.pendingRetries.Add(1)
	r.replayBacklog.Store(int64(len(jobs)))
	go func() {
		defer r.pendingRetries.Add(-1)
		for _, j := range jobs {
			select {
			case r.queue <- j:
				r.queued.Add(1)
				r.fail.journalReplayed.Inc()
			case <-j.ctx.Done():
				r.finalize(j, StateCanceled, context.Cause(j.ctx).Error(), nil)
			}
			r.replayBacklog.Add(-1)
		}
	}()
}

// isDraining reports whether Shutdown has begun.
func (r *jobRunner) isDraining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// watchdog periodically samples every running job's progress counter
// and cancels attempts that have stopped advancing: a hung simulation
// is converted into a retryable failure instead of occupying a worker
// forever.
func (r *jobRunner) watchdog() {
	ticker := time.NewTicker(r.cfg.WatchdogInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.rootCtx.Done():
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		jobs := make([]*Job, 0, len(r.jobs))
		for _, j := range r.jobs {
			jobs = append(jobs, j)
		}
		r.mu.Unlock()
		now := time.Now()
		for _, j := range jobs {
			j.mu.Lock()
			if j.state == StateRunning && !j.finalized {
				p := j.progress.Load()
				switch {
				case p != j.lastProgress:
					j.lastProgress = p
					j.lastProgressAt = now
				case now.Sub(j.lastProgressAt) > r.cfg.WatchdogStall && !j.watchdogKilled:
					j.watchdogKilled = true
					if j.attemptCancel != nil {
						j.attemptCancel()
					}
					r.log.Warn("watchdog killed stalled attempt", "job", j.ID,
						"stalled_for", now.Sub(j.lastProgressAt).String())
				}
			}
			j.mu.Unlock()
		}
	}
}

// observeService folds one attempt duration into the service-time EWMA.
func (r *jobRunner) observeService(d time.Duration) {
	r.svcMu.Lock()
	s := d.Seconds()
	if r.svcEWMA == 0 {
		r.svcEWMA = s
	} else {
		r.svcEWMA = 0.8*r.svcEWMA + 0.2*s
	}
	r.svcMu.Unlock()
}

// retryAfter estimates when a rejected submitter should try again, from
// the observed queue drain rate: (queue depth / workers + 1) attempts'
// worth of EWMA service time, clamped to [1s, 5m].
func (r *jobRunner) retryAfter() time.Duration {
	r.svcMu.Lock()
	avg := r.svcEWMA
	r.svcMu.Unlock()
	if avg <= 0 {
		avg = 1
	}
	d := time.Duration(avg * (float64(r.queued.Load())/float64(r.cfg.Workers) + 1) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// stopIntake makes every later submit fail with errDraining and fires
// pending retries immediately. Idempotent.
func (r *jobRunner) stopIntake() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.draining {
		r.draining = true
		close(r.drainNow)
	}
}

// drain stops intake and waits for every live job — queued, running,
// and retrying — to reach a terminal state, or for ctx to expire. The
// caller decides what expiry means (Shutdown treats it as a crash for
// journal purposes, so unfinished work is replayed on restart).
func (r *jobRunner) drain(ctx context.Context) error {
	r.stopIntake()
	finished := make(chan struct{})
	go func() {
		r.liveWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// compactJournal rewrites the journal down to the submit records of
// still-unfinished jobs (none after a complete drain).
func (r *jobRunner) compactJournal() {
	var live []journalRecord
	r.mu.Lock()
	for _, id := range r.order {
		j, ok := r.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		if !j.state.terminal() {
			live = append(live, journalRecord{T: recSubmit, Job: j.ID, Kind: j.Kind,
				Key: j.cacheKey, Req: j.rawReq, TimeoutMS: j.timeout.Milliseconds()})
		}
		j.mu.Unlock()
	}
	r.mu.Unlock()
	if err := r.journal.compact(live); err != nil {
		r.log.Error("journal compact", "err", err)
	}
}
