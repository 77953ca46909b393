// Package cluster distributes a fault-injection campaign across
// reese-serve worker replicas. A coordinator splits the campaign's
// trial plan into contiguous shards — each shard is the exact
// [offset, offset+count) slice of the single-process plan, because the
// harness derives every trial from its own (seed, index) splitmix64
// substream — fans the shards out over the workers' HTTP job API
// (POST /v1/faults/batch), and merges the shard reports with
// harness.MergeReports into a CampaignReport byte-identical to the
// single-process run.
//
// Robustness is part of the contract, not best-effort:
//
//   - A worker answering 503 (full queue, drain) gets its shards back
//     on the queue with the server's Retry-After honored.
//   - A worker that stops answering (killed, partitioned) has its
//     in-flight shards reassigned to the survivors; the poll loop that
//     drives each shard doubles as its heartbeat.
//   - Completion is idempotent: the first result for a shard index
//     wins, later duplicates are dropped, and the merge itself refuses
//     any shard set that does not tile the plan exactly — a lost or
//     double-counted shard is an error, never a silently wrong report.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/server"
)

// Campaign is the cluster-level request: a full fault campaign to be
// sharded across workers. The fields mirror server.ShardSpec minus the
// shard window, which the coordinator assigns.
type Campaign struct {
	Workload           string          `json:"workload"`
	Machine            *config.Machine `json:"machine,omitempty"`
	Structures         []string        `json:"structures,omitempty"`
	Injections         int             `json:"injections"`
	Seed               uint64          `json:"seed,omitempty"`
	TargetInsts        uint64          `json:"target_insts,omitempty"`
	CheckpointInterval uint64          `json:"checkpoint_interval,omitempty"`
	// ShardSize overrides the trials-per-shard split (0 = auto: about
	// four shards per worker, so reassignment granularity stays useful).
	ShardSize int `json:"shard_size,omitempty"`
	// Triage re-runs escaped trials (SDC/Hang, plus Detected when
	// TriageDetected is set) on the worker that ran them, with
	// first-divergence attribution; the coordinator reattaches each
	// shard's trace blobs to the merged trial log.
	Triage         bool `json:"triage,omitempty"`
	TriageDetected bool `json:"triage_detected,omitempty"`
	// ResumeToken names this campaign in the coordinator WAL. When the
	// coordinator runs with a WALDir, resubmitting the same token resumes
	// the journaled campaign: completed shards replay from disk, only the
	// missing windows re-run. Empty means the token derives from the spec
	// itself, so identical resubmissions resume automatically.
	ResumeToken string `json:"resume_token,omitempty"`
}

// Hooks receives shard lifecycle counts; server.ShardMetrics satisfies
// it structurally, keeping this package and server import-acyclic.
type Hooks interface {
	ShardAssigned()
	ShardCompleted(seconds float64)
	ShardRetried()
	ShardReassigned()
	// ShardCorrupted counts payloads that failed their end-to-end sha256
	// integrity check and were re-fetched instead of merged.
	ShardCorrupted()
	// WorkerReadmitted counts quarantined workers that answered a
	// probation probe and rejoined the campaign.
	WorkerReadmitted()
	// CampaignResumed counts campaigns whose completed shards were
	// replayed from the coordinator WAL after a restart.
	CampaignResumed()
	// ShardRestored counts individual shards served from the WAL instead
	// of re-executed.
	ShardRestored()
}

// Event is one live-progress notification, streamed to clients as SSE
// or chunked JSONL by Handler.
type Event struct {
	// Type is assigned | completed | retried | reassigned | corrupted |
	// quarantined | readmitted | restored | error. Worker-level events
	// (quarantined, readmitted) carry Shard == -1.
	Type   string `json:"type"`
	Shard  int    `json:"shard"`
	Worker string `json:"worker,omitempty"`
	// CompletedShards/TotalShards and CompletedTrials/TotalTrials track
	// overall progress at the time of the event.
	CompletedShards int `json:"completed_shards"`
	TotalShards     int `json:"total_shards"`
	CompletedTrials int `json:"completed_trials"`
	TotalTrials     int `json:"total_trials"`
	// ElapsedS is seconds since the campaign started.
	ElapsedS float64 `json:"elapsed_s"`
	Err      string  `json:"err,omitempty"`
}

// Config tunes the coordinator; zero values select the defaults.
type Config struct {
	// Workers are the reese-serve replica base URLs (http://host:port).
	Workers []string
	// Client issues all worker HTTP requests (default: 30s timeout).
	Client *http.Client
	// ShardSize is the default trials per shard when the Campaign does
	// not set one (0 = auto).
	ShardSize int
	// Batch caps shards claimed per batch submit (default 4).
	Batch int
	// PollWait is the long-poll duration per job status request — the
	// shard heartbeat interval (default 5s).
	PollWait time.Duration
	// ShardTimeout abandons and reassigns a shard not terminal within
	// this long of its assignment (default 10m).
	ShardTimeout time.Duration
	// MaxAttempts bounds assignments per shard before the campaign
	// fails (default 10).
	MaxAttempts int
	// Metrics receives shard lifecycle counts (optional).
	Metrics Hooks
	// OnEvent receives live progress events (optional).
	OnEvent func(Event)
	// Logger receives coordinator logs (default slog.Default()).
	Logger *slog.Logger
	// WALDir, when non-empty, makes campaigns crash-safe: the spec, the
	// resolved shard windows, and every completed shard payload are
	// journaled there (fsync per record), and a restarted coordinator
	// resumes from the journal instead of starting over. Empty disables
	// the WAL.
	WALDir string
	// RetryPause is the pause after a failed batch round against a
	// worker, so a flapping worker does not spin the queue (default
	// 200ms).
	RetryPause time.Duration
	// ProbationBase/ProbationMax bound the exponential backoff between
	// /readyz probes of a quarantined worker (defaults 500ms and 15s).
	ProbationBase time.Duration
	ProbationMax  time.Duration
	// AllLostTimeout fails the campaign when every worker has been in
	// quarantine continuously for this long with shards still pending —
	// the failsafe against waiting forever on a fleet that is never
	// coming back (default 2m).
	AllLostTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Batch <= 0 {
		c.Batch = 4
	}
	if c.PollWait <= 0 {
		c.PollWait = 5 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.RetryPause <= 0 {
		c.RetryPause = 200 * time.Millisecond
	}
	if c.ProbationBase <= 0 {
		c.ProbationBase = 500 * time.Millisecond
	}
	if c.ProbationMax <= 0 {
		c.ProbationMax = 15 * time.Second
	}
	if c.AllLostTimeout <= 0 {
		c.AllLostTimeout = 2 * time.Minute
	}
	return c
}

// maxShardCount mirrors the worker-side per-shard trial cap.
const maxShardCount = 5_000

// shardSpecs splits the campaign into contiguous [offset, count] windows
// and builds their ShardSpecs.
func shardSpecs(req Campaign, workers, defaultSize int) []server.ShardSpec {
	size := req.ShardSize
	if size <= 0 {
		size = defaultSize
	}
	if size <= 0 {
		// Auto: about four shards per worker — small enough that losing a
		// worker forfeits little work, big enough to amortize round trips.
		size = (req.Injections + 4*workers - 1) / (4 * workers)
	}
	if size < 1 {
		size = 1
	}
	if size > maxShardCount {
		size = maxShardCount
	}
	var windows [][2]int
	for off := 0; off < req.Injections; off += size {
		windows = append(windows, [2]int{off, min(size, req.Injections-off)})
	}
	return specsFromWindows(req, windows)
}

// Run executes the campaign across the configured workers and returns
// the merged report. The report is byte-identical (wall-clock fields
// aside) to the single-process harness.Campaign run with the same
// spec, or Run errors — there is no partial-success mode.
func Run(ctx context.Context, cfg Config, req Campaign) (*harness.CampaignReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if req.Injections <= 0 {
		return nil, fmt.Errorf("cluster: injections %d out of range", req.Injections)
	}
	specs := shardSpecs(req, len(cfg.Workers), cfg.ShardSize)

	// With a WALDir the campaign is journaled: a fresh run writes its
	// spec and shard windows before assigning anything; a resumed run
	// (same token) takes the windows and completed payloads from disk.
	var wal *campaignWAL
	restored := map[int]*server.ShardPayload{}
	if cfg.WALDir != "" {
		token := campaignToken(req)
		var st *walState
		var err error
		wal, st, err = openCampaignWAL(cfg.WALDir, token, cfg.Logger)
		if err != nil {
			return nil, err
		}
		defer wal.close()
		if st == nil {
			if err := wal.begin(req, specs); err != nil {
				return nil, fmt.Errorf("cluster: journal campaign: %w", err)
			}
		} else {
			spec, err := json.Marshal(canonicalCampaign(req))
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(spec, st.spec) {
				return nil, fmt.Errorf("cluster: resume token %s names a different campaign (spec mismatch); choose a fresh token", token)
			}
			// The journaled windows override the freshly computed split, so
			// the resumed run tiles the plan exactly as the original did even
			// if the worker count or shard-size defaults changed meanwhile.
			specs = specsFromWindows(req, st.windows)
			for idx, digest := range st.completed {
				p, perr := wal.loadPayload(digest)
				if perr != nil {
					cfg.Logger.Warn("cluster: wal payload unusable; shard will re-run", "shard", idx, "err", perr)
					continue
				}
				if p.Report.Shard == nil || p.Report.Shard.Offset != specs[idx].ShardOffset || p.Report.Shard.Count != specs[idx].ShardCount {
					cfg.Logger.Warn("cluster: wal payload window mismatch; shard will re-run", "shard", idx)
					continue
				}
				restored[idx] = p
			}
			if cfg.Metrics != nil {
				cfg.Metrics.CampaignResumed()
			}
			cfg.Logger.Info("cluster: resuming campaign from wal",
				"token", token, "restored", len(restored), "total", len(specs))
		}
	}

	co := &coordinator{
		cfg:        cfg,
		specs:      specs,
		wal:        wal,
		queue:      make(chan int, len(specs)),
		donec:      make(chan struct{}),
		results:    make([]*server.ShardPayload, len(specs)),
		attempts:   make([]int, len(specs)),
		lastWorker: make([]string, len(specs)),
		live:       len(cfg.Workers),
		start:      time.Now(),
	}
	for i := range specs {
		if p, ok := restored[i]; ok {
			co.results[i] = p
			co.completed++
			co.doneTrials += specs[i].ShardCount
			continue
		}
		co.queue <- i
	}
	for i := range specs {
		if restored[i] == nil {
			continue
		}
		if cfg.Metrics != nil {
			cfg.Metrics.ShardRestored()
		}
		co.emit(Event{Type: "restored", Shard: i})
	}
	if co.completed == len(specs) {
		// Every shard was already durable; nothing to assign.
		co.mu.Lock()
		co.closeDoneLocked()
		co.mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, url := range cfg.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			co.workerLoop(ctx, url)
		}(url)
	}
	select {
	case <-co.donec:
	case <-ctx.Done():
		co.fail(ctx.Err())
	}
	wg.Wait()
	co.mu.Lock()
	failure := co.failure
	co.mu.Unlock()
	if failure != nil {
		return nil, failure
	}

	reports := make([]*harness.CampaignReport, len(co.results))
	for i, p := range co.results {
		if p == nil {
			return nil, fmt.Errorf("cluster: shard %d finished without a payload", i)
		}
		rep := p.Report
		rep.Trials = p.Trials
		// Trace blobs travel out-of-band of the trial records (the Trace
		// field is excluded from Trial JSON); reattach them so the merged
		// trial log carries its triage artifacts whole.
		for t := range rep.Trials {
			tr := &rep.Trials[t]
			if tr.Triage == nil {
				continue
			}
			if blob, ok := p.Traces[strconv.Itoa(tr.Index)]; ok {
				tr.Triage.Trace = blob
			}
		}
		reports[i] = &rep
	}
	merged, err := harness.MergeReports(reports)
	if err != nil {
		return nil, fmt.Errorf("cluster: merge: %w", err)
	}
	elapsed := time.Since(co.start).Seconds()
	merged.WallSeconds = elapsed
	if elapsed > 0 {
		merged.InjectionsPerSec = float64(merged.Injected) / elapsed
	}
	// The report exists; the journal has done its job.
	wal.finish()
	return merged, nil
}

// specsFromWindows rebuilds shard specs from journaled [offset, count]
// windows, preserving the original plan split across a resume.
func specsFromWindows(req Campaign, windows [][2]int) []server.ShardSpec {
	specs := make([]server.ShardSpec, len(windows))
	for i, w := range windows {
		specs[i] = server.ShardSpec{
			Workload:           req.Workload,
			Machine:            req.Machine,
			Structures:         req.Structures,
			Injections:         req.Injections,
			Seed:               req.Seed,
			TargetInsts:        req.TargetInsts,
			CheckpointInterval: req.CheckpointInterval,
			ShardOffset:        w[0],
			ShardCount:         w[1],
			Triage:             req.Triage,
			TriageDetected:     req.TriageDetected,
		}
	}
	return specs
}

// coordinator is the shared state of one Run: the shard queue, the
// per-shard bookkeeping, and the completion latch.
type coordinator struct {
	cfg   Config
	specs []server.ShardSpec
	wal   *campaignWAL // nil when Config.WALDir is empty
	queue chan int
	donec chan struct{}
	start time.Time

	mu          sync.Mutex
	results     []*server.ShardPayload
	attempts    []int
	lastWorker  []string
	completed   int
	doneTrials  int
	failure     error
	live        int       // workers not currently quarantined
	noLiveSince time.Time // when live last hit zero; zero value = some worker live
	closed      bool
}

// fail records the first fatal error and releases everyone.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.closeDoneLocked()
	c.mu.Unlock()
}

func (c *coordinator) closeDoneLocked() {
	if !c.closed {
		c.closed = true
		close(c.donec)
	}
}

func (c *coordinator) emit(ev Event) {
	c.mu.Lock()
	ev.CompletedShards = c.completed
	ev.CompletedTrials = c.doneTrials
	c.mu.Unlock()
	ev.TotalShards = len(c.specs)
	ev.TotalTrials = c.specs[0].Injections
	ev.ElapsedS = time.Since(c.start).Seconds()
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// claim blocks for one pending shard, then drains up to batch-1 more
// without blocking. Returns nil when the campaign is over.
func (c *coordinator) claim(ctx context.Context) []int {
	var idxs []int
	for len(idxs) < c.cfg.Batch {
		if len(idxs) == 0 {
			select {
			case idx := <-c.queue:
				idxs = append(idxs, idx)
			case <-c.donec:
				return nil
			case <-ctx.Done():
				return nil
			}
			continue
		}
		select {
		case idx := <-c.queue:
			idxs = append(idxs, idx)
		default:
			return idxs
		}
	}
	return idxs
}

// requeue puts shards back on the queue after a failed assignment.
// countAttempt distinguishes worker failures (which spend the shard's
// MaxAttempts budget; exhausting it fails the campaign — the
// alternative, dropping the shard, would yield a silently partial
// report, which the merge would reject anyway) from backpressure
// (worker busy/draining), which must never exhaust a healthy campaign
// however long it lasts.
func (c *coordinator) requeue(idxs []int, worker string, cause error, countAttempt bool) {
	for _, idx := range idxs {
		c.mu.Lock()
		done := c.results[idx] != nil
		if countAttempt {
			c.attempts[idx]++
		}
		exhausted := c.attempts[idx] >= c.cfg.MaxAttempts
		c.mu.Unlock()
		if done {
			continue
		}
		if exhausted {
			c.fail(fmt.Errorf("cluster: shard %d failed after %d attempts: %v", idx, c.cfg.MaxAttempts, cause))
			return
		}
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.ShardRetried()
		}
		c.emit(Event{Type: "retried", Shard: idx, Worker: worker, Err: fmt.Sprint(cause)})
		c.queue <- idx
	}
}

// recordAssign notes which worker a shard landed on, counting a
// reassignment when it moved off a previous worker.
func (c *coordinator) recordAssign(idx int, worker string) {
	c.mu.Lock()
	prev := c.lastWorker[idx]
	c.lastWorker[idx] = worker
	c.mu.Unlock()
	if err := c.wal.appendAssign(idx, worker); err != nil {
		c.cfg.Logger.Warn("cluster: wal assign append failed", "shard", idx, "err", err)
	}
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.ShardAssigned()
		if prev != "" && prev != worker {
			c.cfg.Metrics.ShardReassigned()
		}
	}
	if prev != "" && prev != worker {
		c.emit(Event{Type: "reassigned", Shard: idx, Worker: worker})
	} else {
		c.emit(Event{Type: "assigned", Shard: idx, Worker: worker})
	}
}

// complete records a shard result exactly once; duplicates (a shard
// that was reassigned and then finished twice) are dropped here, which
// together with the workers' content-addressed result cache makes
// reassignment double-count-proof.
func (c *coordinator) complete(idx int, p *server.ShardPayload, worker string, since time.Time) {
	c.mu.Lock()
	dup := c.results[idx] != nil
	c.mu.Unlock()
	if dup {
		return
	}
	// Durable before acknowledged: the payload reaches the WAL before the
	// shard counts as complete, so a coordinator crash at any point
	// re-runs the shard rather than losing it. A sick disk degrades
	// durability, never the campaign.
	if err := c.wal.appendComplete(idx, p); err != nil {
		c.cfg.Logger.Warn("cluster: wal complete append failed; crash-safety degraded", "shard", idx, "err", err)
	}
	c.mu.Lock()
	if c.results[idx] != nil {
		c.mu.Unlock()
		return
	}
	c.results[idx] = p
	c.completed++
	c.doneTrials += c.specs[idx].ShardCount
	last := c.completed == len(c.specs)
	if last {
		c.closeDoneLocked()
	}
	c.mu.Unlock()
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.ShardCompleted(time.Since(since).Seconds())
	}
	c.emit(Event{Type: "completed", Shard: idx, Worker: worker})
}

// maxConsecutiveFailures is how many batch rounds in a row may fail
// against one worker before the coordinator quarantines it.
const maxConsecutiveFailures = 3

// workerLoop drives one worker replica: claim shards, submit them as a
// batch, poll each to completion. Transport-level failures count
// against the worker; too many in a row sends it to probation, where
// /readyz probes on exponential backoff decide whether it comes back.
func (c *coordinator) workerLoop(ctx context.Context, url string) {
	failures := 0
	for {
		idxs := c.claim(ctx)
		if idxs == nil {
			return
		}
		if err := c.runBatch(ctx, url, idxs); err != nil {
			failures++
			c.cfg.Logger.Warn("cluster: worker batch failed", "worker", url, "err", err, "failures", failures)
			if failures >= maxConsecutiveFailures {
				if !c.probation(ctx, url) {
					return
				}
				failures = 0
				continue
			}
			// Brief pause so a flapping worker does not spin the queue.
			select {
			case <-time.After(c.cfg.RetryPause):
			case <-c.donec:
				return
			case <-ctx.Done():
				return
			}
			continue
		}
		failures = 0
	}
}

// probation quarantines a worker after repeated batch failures.
// Instead of writing it off forever — the pre-probation behavior, which
// turned every transient partition into a permanent capacity loss — the
// coordinator probes the worker's /readyz on exponential backoff
// (ProbationBase doubling up to ProbationMax) and readmits it the
// moment it answers ready. Returns true to resume the worker's loop,
// false when the campaign ended first. The failsafe: once every worker
// has been quarantined continuously for AllLostTimeout with shards
// still pending, the campaign fails rather than waiting forever on a
// fleet that is never coming back.
func (c *coordinator) probation(ctx context.Context, url string) bool {
	c.mu.Lock()
	c.live--
	if c.live == 0 && c.noLiveSince.IsZero() {
		c.noLiveSince = time.Now()
	}
	c.mu.Unlock()
	c.cfg.Logger.Warn("cluster: quarantining worker", "worker", url)
	c.emit(Event{Type: "quarantined", Shard: -1, Worker: url})

	backoff := c.cfg.ProbationBase
	for {
		select {
		case <-time.After(backoff):
		case <-c.donec:
			return false
		case <-ctx.Done():
			return false
		}
		ok, retryAfter, err := c.ready(ctx, url)
		if err == nil && ok {
			c.mu.Lock()
			c.live++
			c.noLiveSince = time.Time{}
			c.mu.Unlock()
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.WorkerReadmitted()
			}
			c.cfg.Logger.Info("cluster: worker readmitted", "worker", url)
			c.emit(Event{Type: "readmitted", Shard: -1, Worker: url})
			return true
		}
		c.mu.Lock()
		var allLostFor time.Duration
		if c.live == 0 && !c.noLiveSince.IsZero() {
			allLostFor = time.Since(c.noLiveSince)
		}
		pending := c.completed < len(c.specs)
		c.mu.Unlock()
		if pending && allLostFor > c.cfg.AllLostTimeout {
			c.fail(fmt.Errorf("cluster: all workers quarantined for %s with shards still pending", allLostFor.Round(time.Second)))
			return false
		}
		backoff *= 2
		if retryAfter > backoff {
			backoff = retryAfter
		}
		if backoff > c.cfg.ProbationMax {
			backoff = c.cfg.ProbationMax
		}
	}
}

// runBatch submits one claimed batch to a worker and drives every
// accepted shard to a terminal state. A transport error reassigns the
// not-yet-finished shards and reports the worker as failing; a 503
// requeues with the Retry-After honored and reports success (the
// worker is alive, merely busy).
func (c *coordinator) runBatch(ctx context.Context, url string, idxs []int) error {
	// Skip shards that finished elsewhere while these sat in the queue.
	pending := idxs[:0]
	for _, idx := range idxs {
		c.mu.Lock()
		done := c.results[idx] != nil
		c.mu.Unlock()
		if !done {
			pending = append(pending, idx)
		}
	}
	if len(pending) == 0 {
		return nil
	}

	if ready, retryAfter, err := c.ready(ctx, url); err != nil {
		c.requeue(pending, url, err, true)
		return err
	} else if !ready {
		// Backpressure, not failure: the worker answered, it is merely
		// draining or replaying. Does not spend the shards' attempt budget.
		c.requeue(pending, url, errors.New("worker not ready"), false)
		c.sleep(ctx, retryAfter)
		return nil
	}

	batch := server.BatchRequest{Shards: make([]server.ShardSpec, len(pending))}
	for i, idx := range pending {
		batch.Shards[i] = c.specs[idx]
	}
	resp, err := c.postBatch(ctx, url, batch)
	if err != nil {
		var busy *busyError
		if errors.As(err, &busy) {
			// 503 between the readyz gate and the submit (load spike, chaos
			// injection): alive but shedding. Same treatment as not-ready.
			c.requeue(pending, url, err, false)
			c.sleep(ctx, busy.after)
			return nil
		}
		c.requeue(pending, url, err, true)
		return err
	}
	assigned := time.Now()
	var backoff time.Duration
	type assignment struct {
		idx int
		id  string
	}
	var jobs []assignment
	for i, item := range resp.Items {
		idx := pending[i]
		if item.Error != "" {
			c.requeue([]int{idx}, url, errors.New(item.Error), true)
			if d := time.Duration(item.RetryAfterMS) * time.Millisecond; d > backoff {
				backoff = d
			}
			continue
		}
		c.recordAssign(idx, url)
		if item.Job.State == server.StateDone {
			// Cache hit: the worker already ran this shard in a previous
			// assignment; the batch answered with the finished job inline.
			if err := c.adoptResult(idx, item.Job, url, assigned); err != nil {
				c.requeue([]int{idx}, url, err, true)
			}
			continue
		}
		jobs = append(jobs, assignment{idx: idx, id: item.Job.ID})
	}

	for i, a := range jobs {
		if err := c.pollToCompletion(ctx, url, a.idx, a.id, assigned); err != nil {
			// Transport or job failure: give this shard and the rest of the
			// batch back for reassignment — this worker is suspect.
			remaining := make([]int, 0, len(jobs)-i)
			for _, rest := range jobs[i:] {
				remaining = append(remaining, rest.idx)
			}
			c.requeue(remaining, url, err, true)
			return err
		}
	}
	c.sleep(ctx, backoff)
	return nil
}

// pollToCompletion long-polls one job until terminal — the shard's
// heartbeat. A worker that dies mid-shard surfaces here as a transport
// error; a shard stuck past ShardTimeout is abandoned for reassignment.
func (c *coordinator) pollToCompletion(ctx context.Context, url string, idx int, id string, assigned time.Time) error {
	for {
		select {
		case <-c.donec:
			return fmt.Errorf("shard %d: campaign ended while polling", idx)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Since(assigned) > c.cfg.ShardTimeout {
			return fmt.Errorf("shard %d timed out after %s on %s", idx, c.cfg.ShardTimeout, url)
		}
		v, err := c.getJob(ctx, url, id)
		if err != nil {
			var busy *busyError
			if errors.As(err, &busy) {
				// A transient 503 on the poll path (proxy hiccup, chaos
				// injection): the job is still running on the worker; keep
				// the heartbeat going, bounded by ShardTimeout above.
				c.sleep(ctx, busy.after)
				continue
			}
			return err
		}
		switch v.State {
		case server.StateDone:
			return c.adoptResult(idx, v, url, assigned)
		case server.StateFailed:
			return fmt.Errorf("shard %d failed on %s: %s", idx, url, v.Error)
		case server.StateCanceled:
			return fmt.Errorf("shard %d canceled on %s: %s", idx, url, v.Error)
		}
	}
}

// adoptResult decodes a finished job's ShardPayload and records it.
func (c *coordinator) adoptResult(idx int, v *server.JobView, url string, assigned time.Time) error {
	if len(v.Result) == 0 {
		return fmt.Errorf("shard %d: done job %s carries no result", idx, v.ID)
	}
	var p server.ShardPayload
	if err := json.Unmarshal(v.Result, &p); err != nil {
		return fmt.Errorf("shard %d: decode payload: %w", idx, err)
	}
	if p.Report.Shard == nil || p.Report.Shard.Offset != c.specs[idx].ShardOffset || p.Report.Shard.Count != c.specs[idx].ShardCount {
		return fmt.Errorf("shard %d: payload window %+v does not match assignment", idx, p.Report.Shard)
	}
	// End-to-end integrity: the worker stamped the sha256 of the
	// canonical payload before it left the process; recompute it here and
	// refuse anything that was damaged in transit. A mismatch is a
	// retryable transport error — the shard re-fetches (the worker's
	// result cache answers instantly) — never a silent merge of corrupt
	// tallies. Payloads from pre-digest workers (empty field) pass.
	if p.Digest != "" {
		got, err := p.CanonicalDigest()
		if err != nil {
			return fmt.Errorf("shard %d: digest payload: %w", idx, err)
		}
		if got != p.Digest {
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.ShardCorrupted()
			}
			c.emit(Event{Type: "corrupted", Shard: idx, Worker: url})
			return fmt.Errorf("shard %d: payload integrity failure: body hashes to %.12s, worker stamped %.12s (damaged in transit)", idx, got, p.Digest)
		}
	}
	c.complete(idx, &p, url, assigned)
	return nil
}

func (c *coordinator) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	select {
	case <-time.After(d):
	case <-c.donec:
	case <-ctx.Done():
	}
}

// ready gates assignment on the worker's /readyz: a draining or
// journal-replaying worker is skipped (with its Retry-After honored)
// rather than loaded up with shards it will shed.
func (c *coordinator) ready(ctx context.Context, url string) (ok bool, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false, 0, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode == http.StatusOK {
		return true, 0, nil
	}
	after := time.Second
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
		after = d
	}
	return false, after, nil
}

func (c *coordinator) postBatch(ctx context.Context, url string, batch server.BatchRequest) (*server.BatchResponse, error) {
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	var out server.BatchResponse
	if err := c.call(ctx, http.MethodPost, url+"/v1/faults/batch", body, &out, "batch submit", http.StatusOK); err != nil {
		return nil, err
	}
	return &out, nil
}

// getJob long-polls one job. The job endpoint answers 200 (terminal),
// 202 (still going), or 500 (failed) — all three carry a JobView.
func (c *coordinator) getJob(ctx context.Context, url, id string) (*server.JobView, error) {
	var v server.JobView
	err := c.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s?wait=%s", url, id, c.cfg.PollWait), nil, &v,
		"poll job "+id, http.StatusOK, http.StatusAccepted, http.StatusInternalServerError)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// call does one worker round trip and decodes the JSON reply into out.
// A 503 is a busyError (alive but shedding); any status outside ok is
// an error labelled with what.
func (c *coordinator) call(ctx context.Context, method, url string, body []byte, out any, what string, ok ...int) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return newBusyError(resp)
	}
	if !slices.Contains(ok, resp.StatusCode) {
		return fmt.Errorf("%s: %s: %s", what, resp.Status, truncate(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: decode: %w", what, err)
	}
	return nil
}

func truncate(b []byte) string {
	const max = 256
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// busyError marks a worker that answered 503: alive and reachable,
// refusing work right now. Callers treat it as backpressure — sleep for
// the advertised Retry-After and try again — rather than as a strike
// against the worker or the shard's attempt budget.
type busyError struct {
	status string
	after  time.Duration
}

func newBusyError(resp *http.Response) *busyError {
	after := time.Second
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
		after = d
	}
	return &busyError{status: resp.Status, after: after}
}

func (e *busyError) Error() string {
	return fmt.Sprintf("worker busy: %s (retry after %s)", e.status, e.after)
}

// parseRetryAfter parses an HTTP Retry-After header in both forms RFC
// 9110 allows: delta-seconds ("30") and HTTP-date ("Fri, 08 Aug 2026
// 07:28:00 GMT"). Dates in the past clamp to zero. Returns false for
// absent or unparseable values.
func parseRetryAfter(s string) (time.Duration, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(s); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
