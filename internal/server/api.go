package server

// Wire types of the v1 JSON API and the normalization that turns a
// sparse request into the canonical form used both to run the job and
// to address the result cache. Normalization must be total: two
// requests meaning the same simulation must normalize to identical
// structs, or the cache fragments.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/obs"
	"reese/internal/workload"
)

// Limits bound per-request work so one client cannot park the service
// on a month-long simulation.
type Limits struct {
	// MaxInsts caps the committed-instruction budget of any single
	// simulation (runs and figure cells alike).
	MaxInsts uint64
	// DefaultRunInsts/DefaultFigureInsts fill omitted budgets, matching
	// the reese-sim and harness defaults.
	DefaultRunInsts    uint64
	DefaultFigureInsts uint64
}

// DefaultLimits mirror the CLI defaults with a generous ceiling.
func DefaultLimits() Limits {
	return Limits{MaxInsts: 50_000_000, DefaultRunInsts: 200_000, DefaultFigureInsts: 150_000}
}

// RunRequest asks for one workload on one machine — the reese-sim CLI
// as an endpoint.
type RunRequest struct {
	// Workload names a Table 2 benchmark (gcc, go, ijpeg, li, perl,
	// vortex).
	Workload string `json:"workload"`
	// Insts is the committed-instruction budget (0 = server default).
	Insts uint64 `json:"insts,omitempty"`
	// Iters overrides the workload's outer iteration count.
	Iters int `json:"iters,omitempty"`
	// Machine is the full configuration (omit for the Table 1 starting
	// configuration). Serialize one from config.Starting() and edit.
	Machine *config.Machine `json:"machine,omitempty"`
	// FaultAt, when non-zero, injects one bit flip into instruction
	// #FaultAt at position FaultBit, as reese-sim -fault-at.
	FaultAt  uint64 `json:"fault_at,omitempty"`
	FaultBit uint8  `json:"fault_bit,omitempty"`
}

// normalize applies defaults and validates; the result is the canonical
// request the cache key hashes.
func (r RunRequest) normalize(lim Limits) (RunRequest, error) {
	spec, ok := workload.ByName(r.Workload)
	if !ok {
		return r, errUnknownWorkload(r.Workload)
	}
	if r.Insts == 0 {
		r.Insts = lim.DefaultRunInsts
	}
	if r.Insts > lim.MaxInsts {
		return r, fmt.Errorf("insts %d exceeds server limit %d", r.Insts, lim.MaxInsts)
	}
	if r.Iters < 0 {
		return r, fmt.Errorf("negative iters %d", r.Iters)
	}
	if r.Iters == 0 {
		// Canonicalize the default here (not in the runner) so sparse and
		// explicit spellings of the same job share one cache key.
		r.Iters = spec.DefaultIters * 2
	}
	if r.Machine == nil {
		m := config.Starting()
		r.Machine = &m
	}
	if err := r.Machine.Validate(); err != nil {
		return r, err
	}
	if r.FaultAt == 0 {
		r.FaultBit = 0
	} else if r.FaultBit > 31 {
		return r, fmt.Errorf("fault bit %d out of range [0,31]", r.FaultBit)
	}
	return r, nil
}

// figureNames are the accepted FigureRequest.Figure values.
var figureRunners = map[string]bool{"2": true, "3": true, "4": true, "5": true, "6": true, "7": true}

// FigureRequest asks for one of the paper's figures.
type FigureRequest struct {
	// Figure selects the experiment: "2".."7".
	Figure string `json:"figure"`
	// Insts is the per-cell committed-instruction budget (0 = server
	// default).
	Insts uint64 `json:"insts,omitempty"`
}

func (r FigureRequest) normalize(lim Limits) (FigureRequest, error) {
	if !figureRunners[r.Figure] {
		return r, fmt.Errorf("unknown figure %q (have 2..7)", r.Figure)
	}
	if r.Insts == 0 {
		r.Insts = lim.DefaultFigureInsts
	}
	if r.Insts > lim.MaxInsts {
		return r, fmt.Errorf("insts %d exceeds server limit %d", r.Insts, lim.MaxInsts)
	}
	return r, nil
}

// FaultsRequest asks for a statistical fault-injection campaign: seeded
// random faults over (instruction, structure, bit), each classified
// against a golden run (see harness.Campaign).
type FaultsRequest struct {
	// Workload limits the campaign to one benchmark; empty runs all six
	// (REESE vs baseline on each).
	Workload string `json:"workload,omitempty"`
	// Injections is the number of trials per campaign (0 = 200).
	Injections int `json:"injections,omitempty"`
	// Seed drives victim sampling; equal requests reproduce exactly
	// (which is what makes the result cache sound). 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Structures names the fault targets to sample (fault.ParseStruct
	// spellings, e.g. "result", "fetch-pc"); empty selects every
	// structure each machine supports.
	Structures []string `json:"structures,omitempty"`
	// TargetInsts is the approximate golden-run length per trial (0 =
	// the harness default).
	TargetInsts uint64 `json:"target_insts,omitempty"`
	// CheckpointInterval is the golden-run snapshot spacing in committed
	// instructions for checkpoint/fork replay (0 = the harness default).
	// Results are byte-identical at any interval; only throughput and
	// memory footprint change.
	CheckpointInterval uint64 `json:"checkpoint_interval,omitempty"`
	// L2ECC enables SECDED ECC on both machines' L2 cache: single-bit
	// L2 data faults are corrected (outcome "corrected"), double-bit
	// faults are detected-uncorrectable.
	L2ECC bool `json:"l2_ecc,omitempty"`
	// Triage re-runs every SDC/Hang trial from its checkpoint with the
	// flight recorder and first-divergence attribution armed; the
	// escaped trials and their Perfetto traces ride in the payload (see
	// FaultsPayload.Escapes/Traces and GET /v1/jobs/{id}/trace/{key}).
	Triage bool `json:"triage,omitempty"`
	// TriageDetected widens the triage pass to Detected outcomes.
	TriageDetected bool `json:"triage_detected,omitempty"`
}

// MaxFaultInjections bounds the trials one job runs: a faults request's
// campaign size, and a shard's share of a distributed plan (the cluster
// coordinator splits plans at this size). At the default run length
// this is roughly the cost of one large figure.
const MaxFaultInjections = 5_000

func (r FaultsRequest) normalize(lim Limits) (FaultsRequest, error) {
	if r.Injections == 0 {
		r.Injections = 200
	}
	if r.Injections < 0 || r.Injections > MaxFaultInjections {
		return r, fmt.Errorf("injections %d out of range [1,%d]", r.Injections, MaxFaultInjections)
	}
	err := normalizeCampaign(lim, r.Workload, r.Structures, &r.Seed, &r.TargetInsts, r.CheckpointInterval, r.Triage, &r.TriageDetected)
	return r, err
}

// campaignSpec is the base spec of the request's REESE-vs-baseline
// comparison (harness.CampaignAll): the Table 1 machine, with SECDED on
// its L2 when the request asks for it.
func (r FaultsRequest) campaignSpec() harness.CampaignSpec {
	m := config.Starting()
	m.Memory.L2.ECC = r.L2ECC
	return harness.CampaignSpec{
		Workload:           r.Workload,
		Machine:            m,
		Structures:         parseStructures(r.Structures),
		Injections:         r.Injections,
		Seed:               r.Seed,
		TargetInsts:        r.TargetInsts,
		CheckpointInterval: r.CheckpointInterval,
		Triage:             r.Triage,
		TriageDetected:     r.TriageDetected,
	}
}

// normalizeCampaign validates the fields every campaign request carries,
// FaultsRequest and ShardSpec alike, and canonicalizes their defaults in
// place so sparse and explicit spellings of one campaign share a cache
// key. An empty workload is the all-workloads sweep, which cannot be
// triaged.
func normalizeCampaign(lim Limits, wl string, structures []string, seed, targetInsts *uint64,
	checkpointInterval uint64, triage bool, triageDetected *bool) error {
	if _, ok := workload.ByName(wl); !ok && wl != "" {
		return errUnknownWorkload(wl)
	}
	for _, name := range structures {
		if _, ok := fault.ParseStruct(name); !ok {
			return fmt.Errorf("unknown fault structure %q", name)
		}
	}
	if *seed == 0 {
		*seed = 1
	}
	if *targetInsts == 0 {
		*targetInsts = 8_000
	}
	if *targetInsts > lim.MaxInsts {
		return fmt.Errorf("target_insts %d exceeds server limit %d", *targetInsts, lim.MaxInsts)
	}
	if checkpointInterval != 0 && checkpointInterval < 64 {
		// A denser schedule than one snapshot per 64 instructions costs
		// more memory than it saves simulation.
		return fmt.Errorf("checkpoint_interval %d too small (min 64, or 0 for the default)", checkpointInterval)
	}
	if triage && wl == "" {
		// The all-workloads sweep is a summary view; triage artifacts only
		// make sense against one campaign's trial log.
		return fmt.Errorf("triage requires a single workload")
	}
	if !triage {
		// triage_detected is meaningless without triage, and must not
		// fragment the cache.
		*triageDetected = false
	}
	return nil
}

func errUnknownWorkload(name string) error {
	return fmt.Errorf("unknown workload %q (have %v)", name, workload.Names())
}

// ShardSpec asks for one shard of a distributed fault campaign: trials
// [shard_offset, shard_offset+shard_count) of the full
// injections-trial plan. Per-trial substream planning (see
// harness.CampaignSpec.Shard) guarantees the shard executes exactly
// the trials the single-process campaign would run at those indices,
// so a coordinator can merge shard reports into the byte-identical
// whole. Unlike FaultsRequest this carries an explicit machine — the
// coordinator shards one (workload, machine) campaign at a time.
type ShardSpec struct {
	Workload string `json:"workload"`
	// Machine is the exact configuration under test (omit for the
	// REESE starting configuration).
	Machine    *config.Machine `json:"machine,omitempty"`
	Structures []string        `json:"structures,omitempty"`
	// Injections is the FULL plan size, not this shard's share; it may
	// exceed the single-request campaign cap because only shard_count
	// trials run here.
	Injections         int    `json:"injections"`
	Seed               uint64 `json:"seed,omitempty"`
	TargetInsts        uint64 `json:"target_insts,omitempty"`
	CheckpointInterval uint64 `json:"checkpoint_interval,omitempty"`
	ShardOffset        int    `json:"shard_offset"`
	ShardCount         int    `json:"shard_count"`
	// Triage/TriageDetected mirror FaultsRequest: escaped trials in this
	// shard carry triage records, and their trace blobs travel in
	// ShardPayload.Traces keyed by global trial index.
	Triage         bool `json:"triage,omitempty"`
	TriageDetected bool `json:"triage_detected,omitempty"`
}

// maxPlanInjections bounds the full distributed plan a shard may
// reference; the per-worker work is still bounded by MaxFaultInjections
// trials per shard.
const maxPlanInjections = 10_000_000

func (r ShardSpec) normalize(lim Limits) (ShardSpec, error) {
	if r.Workload == "" {
		return r, errUnknownWorkload(r.Workload)
	}
	if r.Machine == nil {
		m := config.Starting().WithReese()
		r.Machine = &m
	}
	if err := r.Machine.Validate(); err != nil {
		return r, err
	}
	if r.Injections <= 0 || r.Injections > maxPlanInjections {
		return r, fmt.Errorf("injections %d out of range [1,%d]", r.Injections, maxPlanInjections)
	}
	if r.ShardCount <= 0 || r.ShardCount > MaxFaultInjections {
		return r, fmt.Errorf("shard_count %d out of range [1,%d]", r.ShardCount, MaxFaultInjections)
	}
	if r.ShardOffset < 0 || r.ShardOffset+r.ShardCount > r.Injections {
		return r, fmt.Errorf("shard [%d,%d) outside the %d-trial plan",
			r.ShardOffset, r.ShardOffset+r.ShardCount, r.Injections)
	}
	err := normalizeCampaign(lim, r.Workload, r.Structures, &r.Seed, &r.TargetInsts, r.CheckpointInterval, r.Triage, &r.TriageDetected)
	return r, err
}

// Validate reports whether the shard is one a worker accepts, without
// canonicalizing it: the cluster coordinator checks a campaign before
// journaling it, and the spec it journals must stay as the client sent
// it.
func (r ShardSpec) Validate(lim Limits) error {
	_, err := r.normalize(lim)
	return err
}

// campaignSpec converts the normalized wire form into the harness spec.
func (r ShardSpec) campaignSpec() harness.CampaignSpec {
	return harness.CampaignSpec{
		Workload:           r.Workload,
		Machine:            *r.Machine,
		Injections:         r.Injections,
		Seed:               r.Seed,
		TargetInsts:        r.TargetInsts,
		CheckpointInterval: r.CheckpointInterval,
		Triage:             r.Triage,
		TriageDetected:     r.TriageDetected,
		Shard:              &harness.ShardRange{Offset: r.ShardOffset, Count: r.ShardCount, Plan: r.Injections},
		Structures:         parseStructures(r.Structures),
	}
}

// parseStructures maps structure names that normalize has validated to
// fault structures.
func parseStructures(names []string) []fault.Struct {
	var out []fault.Struct
	for _, name := range names {
		st, _ := fault.ParseStruct(name)
		out = append(out, st)
	}
	return out
}

// BatchRequest is the body of POST /v1/faults/batch: several shards
// submitted in one round trip — the coordinator's fan-out primitive.
type BatchRequest struct {
	Shards []ShardSpec `json:"shards"`
}

// maxBatchShards bounds one batch submit.
const maxBatchShards = 256

// BatchItem is the per-shard outcome of a batch submit: either an
// accepted (or cache-satisfied) job, or a shard-level error with the
// same Retry-After hint a single submit would have carried. Shards are
// answered positionally — item i is request shard i.
type BatchItem struct {
	Job          *JobView `json:"job,omitempty"`
	Error        string   `json:"error,omitempty"`
	RetryAfterMS int64    `json:"retry_after_ms,omitempty"`
}

// BatchResponse answers POST /v1/faults/batch.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// ShardPayload is a shard job's result: the shard slice of the
// campaign report plus its per-trial records (CampaignReport excludes
// trials from its own JSON form, so they travel alongside). The
// coordinator feeds these to harness.MergeReports.
type ShardPayload struct {
	Report harness.CampaignReport `json:"report"`
	Trials []harness.Trial        `json:"trials,omitempty"`
	// Traces holds the Perfetto trace blob of every triaged trial in
	// this shard, keyed by the trial's global plan index. They travel
	// separately from the trial records because the trace blob is
	// excluded from Trial JSON (it would bloat every JSONL consumer).
	Traces map[string]json.RawMessage `json:"traces,omitempty"`
	// Digest is the hex sha256 of the payload's canonical JSON with
	// this field empty, computed by the worker that ran the shard. The
	// coordinator recomputes it after decoding; a mismatch means the
	// body was damaged in flight (bit flip, truncation that still
	// parses) and the shard is retried rather than merged — corrupt
	// tallies must never reach the report. A payload without a digest
	// is refused the same way. See CanonicalDigest.
	Digest string `json:"digest,omitempty"`
}

// CanonicalDigest returns the hex sha256 of the payload's canonical
// JSON form with the Digest field cleared. Sound as an end-to-end
// integrity check because encoding/json marshals the same struct
// values to the same bytes (map keys sorted, floats shortest-round-
// trip), so decode→re-marshal is byte-stable across worker and
// coordinator.
func (p *ShardPayload) CanonicalDigest() (string, error) {
	saved := p.Digest
	p.Digest = ""
	raw, err := json.Marshal(p)
	p.Digest = saved
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// JobView is the wire form of a job, returned by submits and polls.
type JobView struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	// Started/Finished are set once the job leaves the queue / reaches a
	// terminal state.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Cached marks a job satisfied from the result cache; Replayed marks
	// a job recovered from the journal after a restart (terminal
	// replayed jobs carry no Result — payloads are not persisted, an
	// identical resubmission recomputes them deterministically).
	Cached   bool   `json:"cached,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
	Error    string `json:"error,omitempty"`
	// Attempt counts execution attempts so far; Attempts is the full
	// per-attempt history (cause and panic stack included); LastCause is
	// the most recent failure cause; NextRetry is set while State is
	// "retrying"; Progress is the committed-instruction heartbeat the
	// watchdog samples.
	Attempt   int           `json:"attempt,omitempty"`
	Attempts  []AttemptView `json:"attempts,omitempty"`
	LastCause string        `json:"last_cause,omitempty"`
	NextRetry *time.Time    `json:"next_retry,omitempty"`
	Progress  uint64        `json:"progress_insts,omitempty"`
	// Result is the kind-specific payload (RunPayload, FigurePayload,
	// FaultsPayload), present once State is "done".
	Result json.RawMessage `json:"result,omitempty"`
	// Spans is the job's trace: a root span from submit to terminal
	// state with a child per phase (queue-wait, attempt N, backoff N,
	// journal appends), each carrying start/end times and an outcome.
	Spans *obs.Span `json:"spans,omitempty"`
}

// AttemptView is one execution attempt of a job: when it ran and, if it
// failed, why — including the recovered stack for contained panics.
type AttemptView struct {
	Number   int        `json:"number"`
	Started  time.Time  `json:"started"`
	Finished *time.Time `json:"finished,omitempty"`
	Cause    string     `json:"cause,omitempty"`
	Stack    string     `json:"stack,omitempty"`
}

// FigurePayload is the /v1/figure result: the structured series plus
// the same rendered table the CLI prints (byte-identical to an
// in-process harness call, which the e2e test asserts).
type FigurePayload struct {
	Figure *harness.FigureResult  `json:"figure,omitempty"`
	Rows   []harness.SummaryRow   `json:"rows,omitempty"`
	Points []harness.Figure7Point `json:"points,omitempty"`
	Table  string                 `json:"table"`
}

// FaultsPayload is the /v1/faults result: one CampaignReport per
// (workload, machine) pair with per-structure coverage and confidence
// intervals, plus the rendered table. When the request set Triage, the
// escaped trials (with their TriageRecords) and the Perfetto trace
// blobs ride along; traces are keyed "reportIdx/trialIdx" and are also
// served individually at GET /v1/jobs/{id}/trace/{key}.
type FaultsPayload struct {
	Reports []harness.CampaignReport   `json:"reports"`
	Table   string                     `json:"table"`
	Escapes []harness.Trial            `json:"escapes,omitempty"`
	Traces  map[string]json.RawMessage `json:"traces,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response. 503s also
// carry RetryAfterMS (mirrored in the Retry-After header), derived from
// the observed queue drain rate, so shed load comes back at a sensible
// time instead of hammering.
type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}
