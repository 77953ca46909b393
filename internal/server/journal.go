package server

// Crash-safe job journal: a write-ahead log of job state transitions
// (submit, start, retry, done, fail, cancel) on the shared fsync'd
// JSON-lines core (internal/wal). A restarted server replays the
// journal and re-enqueues every job whose last recorded state is
// non-terminal — sound because simulation is deterministic and requests
// are journaled in canonical (normalized) form, so a re-run produces
// byte-identical results under the same content address. Result
// payloads are NOT journaled: a replayed terminal job keeps its
// terminal state and cause, and an identical resubmission recomputes
// the payload through the cache.
//
// Replay is tolerant by construction: a crash can leave a torn final
// line, so decoding stops at the first malformed line (or the first
// record without a job ID) and keeps everything before it (locked in
// by FuzzReplayJournal). Clean shutdown compacts the journal down to
// the submit records of any still-unfinished jobs (normally none), so
// the file does not grow across restarts.

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"reese/internal/wal"
)

// Journal record types.
const (
	recSubmit = "submit"
	recStart  = "start"
	recRetry  = "retry"
	recDone   = "done"
	recFail   = "fail"
	recCancel = "cancel"
)

// journalRecord is one JSON line of the write-ahead log.
type journalRecord struct {
	T   string    `json:"t"`
	Job string    `json:"job"`
	TS  time.Time `json:"ts"`
	// Submit fields: enough to rebuild the job after a crash.
	Kind      string          `json:"kind,omitempty"`
	Key       string          `json:"key,omitempty"`
	Req       json.RawMessage `json:"req,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	// Attempt/Cause annotate start, retry, and failure records.
	Attempt int    `json:"attempt,omitempty"`
	Cause   string `json:"cause,omitempty"`
}

// journal is the append handle over the shared log core (internal/wal).
// All methods are safe on a nil receiver (journaling disabled, every
// call a silent no-op) and after kill() (simulated crash: appends stop
// reaching the file, exactly as if the process had died). Any other
// append that cannot reach the file — a closed handle, a sick disk —
// returns an error for the caller to log.
type journal struct {
	log *wal.Log

	mu     sync.Mutex // orders kill() against appends
	killed bool
}

// openJournal opens (creating if needed) the journal at path for
// appending.
func openJournal(path string) (*journal, error) {
	l, err := wal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	return &journal{log: l}, nil
}

// append writes one record and fsyncs, so an acknowledged transition
// survives power loss. Errors are returned for the caller to log; the
// serving path must not die because a disk did.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	rec.TS = time.Now().UTC()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed {
		return nil
	}
	return j.log.Append(rec)
}

// kill simulates a hard process death for the chaos harness and for
// expired drains: every subsequent append silently vanishes, leaving
// the on-disk journal exactly as a SIGKILL would have — so unfinished
// jobs keep their last durable state and are replayed on restart.
func (j *journal) kill() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.killed = true
	j.mu.Unlock()
}

// close releases the file handle.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.log.Close()
}

// compact rewrites the journal to hold only the submit records of the
// given unfinished jobs (normally none after a clean drain), atomically,
// so a crash mid-compaction loses nothing.
func (j *journal) compact(live []journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed {
		return nil // a "dead" journal must keep its crash-time contents
	}
	recs := make([]any, len(live))
	for i, rec := range live {
		recs[i] = rec
	}
	return j.log.Rewrite(recs...)
}

// replayedJob is one job reconstructed from the journal: its last
// durable state plus everything needed to re-enqueue it if that state
// is non-terminal.
type replayedJob struct {
	ID      string
	Kind    string
	Key     string
	Req     json.RawMessage
	Timeout time.Duration
	Created time.Time
	// State is the last journaled state: queued, running, retrying, or a
	// terminal state.
	State    JobState
	Attempts int
	Cause    string
}

// replayJournal decodes the journal at path into per-job final states,
// in submission order, plus the highest job ID seen (so a restarted
// server's ID counter never collides). A missing file is an empty
// journal. Malformed or truncated trailing data ends the replay at the
// last good line — never an error, never a panic.
func replayJournal(path string) ([]replayedJob, uint64, error) {
	byID := make(map[string]*replayedJob)
	var order []string
	var maxID uint64
	err := wal.Replay(path, func(rec journalRecord) bool {
		if rec.Job == "" {
			return false
		}
		var n uint64
		if _, err := fmt.Sscanf(rec.Job, "j-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		r, known := byID[rec.Job]
		switch {
		case rec.T == recSubmit:
			// A malformed but parseable submit is skipped defensively; of
			// duplicate submits the first one wins.
			if !known && rec.Kind != "" && len(rec.Req) > 0 {
				byID[rec.Job] = &replayedJob{
					ID:      rec.Job,
					Kind:    rec.Kind,
					Key:     rec.Key,
					Req:     append(json.RawMessage(nil), rec.Req...),
					Timeout: time.Duration(rec.TimeoutMS) * time.Millisecond,
					Created: rec.TS,
					State:   StateQueued,
				}
				order = append(order, rec.Job)
			}
		case !known:
		case rec.T == recStart && !r.State.terminal():
			r.State, r.Attempts = StateRunning, rec.Attempt
		case rec.T == recRetry && !r.State.terminal():
			r.State, r.Attempts, r.Cause = StateRetrying, rec.Attempt, rec.Cause
		case rec.T == recDone:
			r.State = StateDone
		case rec.T == recFail:
			r.State, r.Attempts, r.Cause = StateFailed, rec.Attempt, rec.Cause
		case rec.T == recCancel:
			r.State, r.Cause = StateCanceled, rec.Cause
		}
		return true
	})
	if err != nil {
		return nil, 0, fmt.Errorf("server: replay journal: %w", err)
	}
	out := make([]replayedJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, maxID, nil
}
