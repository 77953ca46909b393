package cluster

// Coordinator write-ahead log: the crash-safety half of the cluster
// contract. The worker-side job journal (internal/server/journal.go)
// makes a single replica's accepted work durable; this file applies
// the same log core (internal/wal: append-only JSON lines, fsync per
// record, torn-tail-tolerant replay, atomic file writes) to the
// coordinator, whose loss previously forfeited an entire campaign.
//
// One campaign is one WAL file, keyed by a resume token:
//
//	<dir>/<token>.wal           the journal
//	<dir>/<token>.shards/       content-addressed shard payload files
//
// Three record types:
//
//	campaign  the canonical Campaign spec plus the resolved shard
//	          windows — journaled once, first, so a resumed run splits
//	          the plan identically even if the worker set changed
//	assign    shard → worker, for post-mortem observability
//	complete  shard → sha256 of its payload file, appended only after
//	          the payload bytes are durably on disk
//
// A restarted coordinator replays the WAL, reloads every completed
// shard whose payload file still hashes to its journaled digest, and
// re-enqueues only the missing windows; merged output is byte-
// identical to an uninterrupted run because the restored payloads are
// the exact bytes the workers produced. Anything suspect — torn tail,
// missing or corrupt payload file, window mismatch — demotes that
// shard to "not done" and it simply re-runs: the WAL can lose work,
// never invent it.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"reese/internal/server"
	"reese/internal/wal"
)

// WAL record types.
const (
	walCampaign = "campaign"
	walAssign   = "assign"
	walComplete = "complete"
)

// walRecord is one JSON line of the coordinator journal.
type walRecord struct {
	T  string    `json:"t"`
	TS time.Time `json:"ts"`
	// Campaign fields.
	Spec   json.RawMessage `json:"spec,omitempty"`
	Shards [][2]int        `json:"shards,omitempty"` // [offset, count] per shard
	// Assign/complete fields. Shard deliberately has no omitempty:
	// index 0 is a real shard.
	Shard  int    `json:"shard"`
	Worker string `json:"worker,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// campaignWAL is the append handle for one campaign's journal.
// Appends arrive from every worker loop concurrently; the log core
// serializes them so records never interleave mid-line.
type campaignWAL struct {
	path      string
	shardsDir string
	log       *slog.Logger
	journal   *wal.Log
}

// walState is a campaign reconstructed from its WAL: the journaled
// spec, the resolved shard windows, and the digests of every durably
// completed shard.
type walState struct {
	spec      json.RawMessage
	windows   [][2]int
	completed map[int]string // shard index → payload file digest
}

// campaignToken returns the durable identity of a campaign: the
// client-chosen resume token, or — when none was given — the hex
// sha256 of the canonical spec, so identical resubmissions of the same
// campaign resume each other automatically.
func campaignToken(req Campaign) string {
	if req.ResumeToken != "" {
		return sanitizeToken(req.ResumeToken)
	}
	raw, err := json.Marshal(canonicalCampaign(req))
	if err != nil {
		return "campaign" // unreachable for a decodable request
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// canonicalCampaign strips the fields that name the campaign rather
// than define it, for token derivation and resume-spec comparison.
func canonicalCampaign(req Campaign) Campaign {
	req.ResumeToken = ""
	return req
}

// sanitizeToken makes a client token safe as a filename component;
// anything exotic is replaced by its hash rather than rejected.
func sanitizeToken(token string) string {
	ok := len(token) > 0 && len(token) <= 100
	for i := 0; ok && i < len(token); i++ {
		c := token[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			ok = false
		}
	}
	if ok {
		return token
	}
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:16])
}

// openCampaignWAL opens (creating if needed) the WAL for token under
// dir and replays whatever is already there. A nil state means a fresh
// campaign; the caller must journal the campaign record via begin
// before assigning shards.
func openCampaignWAL(dir, token string, log *slog.Logger) (*campaignWAL, *walState, error) {
	if err := os.MkdirAll(filepath.Join(dir, token+".shards"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: wal dir: %w", err)
	}
	w := &campaignWAL{
		path:      filepath.Join(dir, token+".wal"),
		shardsDir: filepath.Join(dir, token+".shards"),
		log:       log,
	}
	state, err := replayWAL(w.path)
	if err != nil {
		return nil, nil, err
	}
	if w.journal, err = wal.Open(w.path); err != nil {
		return nil, nil, fmt.Errorf("cluster: open wal: %w", err)
	}
	return w, state, nil
}

// replayWAL decodes the journal into the campaign's durable state. A
// missing file is a fresh campaign; a malformed or torn trailing line
// ends the replay at the last good record. A file without a leading
// campaign record (e.g. only a torn first line survived) replays as
// fresh.
func replayWAL(path string) (*walState, error) {
	var st *walState
	err := wal.Replay(path, func(rec walRecord) bool {
		switch rec.T {
		case walCampaign:
			// A duplicate campaign record is ignored: the first one wins.
			if st == nil && len(rec.Spec) > 0 && len(rec.Shards) > 0 {
				st = &walState{
					spec:      append(json.RawMessage(nil), rec.Spec...),
					windows:   rec.Shards,
					completed: make(map[int]string),
				}
			}
		case walComplete:
			if st != nil && rec.Shard >= 0 && rec.Shard < len(st.windows) && rec.Digest != "" {
				st.completed[rec.Shard] = rec.Digest
			}
		case walAssign:
			// Observability only; no durable state.
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: replay wal: %w", err)
	}
	return st, nil
}

// append stamps and journals one record. Failures are returned for
// the caller to log: a sick disk degrades durability, never the
// campaign itself.
func (w *campaignWAL) append(rec walRecord) error {
	if w == nil {
		return nil
	}
	rec.TS = time.Now().UTC()
	return w.journal.Append(rec)
}

// begin journals the campaign record: the canonical spec and the
// resolved shard windows. Everything a resumed coordinator needs to
// rebuild the identical plan.
func (w *campaignWAL) begin(req Campaign, specs []server.ShardSpec) error {
	spec, err := json.Marshal(canonicalCampaign(req))
	if err != nil {
		return err
	}
	windows := make([][2]int, len(specs))
	for i, s := range specs {
		windows[i] = [2]int{s.ShardOffset, s.ShardCount}
	}
	return w.append(walRecord{T: walCampaign, Spec: spec, Shards: windows})
}

// appendAssign journals one shard assignment.
func (w *campaignWAL) appendAssign(shard int, worker string) error {
	return w.append(walRecord{T: walAssign, Shard: shard, Worker: worker})
}

// appendComplete persists one shard's payload — bytes first (an
// atomic write of the content-addressed file), record second — so a
// complete record in the journal always points at a durable,
// verifiable payload.
func (w *campaignWAL) appendComplete(shard int, p *server.ShardPayload) error {
	if w == nil {
		return nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	// Content-addressed: a file already under this name holds these
	// bytes. Two workers finishing the same reassigned shard may both
	// write it; each uses its own temp file and either rename wins.
	final := filepath.Join(w.shardsDir, digest+".json")
	if _, err := os.Stat(final); err != nil {
		if err := wal.WriteFile(final, raw); err != nil {
			return err
		}
	}
	return w.append(walRecord{T: walComplete, Shard: shard, Digest: digest})
}

// loadPayload reads one completed shard's payload back, verifying the
// file still hashes to its journaled digest before trusting a byte of
// it. Any failure returns an error and the shard re-runs.
func (w *campaignWAL) loadPayload(digest string) (*server.ShardPayload, error) {
	raw, err := os.ReadFile(filepath.Join(w.shardsDir, digest+".json"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return nil, fmt.Errorf("payload file hashes to %s, journal says %s", got, digest)
	}
	var p server.ShardPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// close releases the journal handle without touching the files — the
// state survives for a future resume.
func (w *campaignWAL) close() {
	if w == nil {
		return
	}
	w.journal.Close()
}

// finish removes the campaign's journal and payload files after the
// merged report has been produced — the cluster analog of the job
// journal's compaction on clean drain.
func (w *campaignWAL) finish() {
	if w == nil {
		return
	}
	w.close()
	if err := os.Remove(w.path); err != nil && !os.IsNotExist(err) {
		w.log.Warn("cluster: remove wal", "path", w.path, "err", err)
	}
	if err := os.RemoveAll(w.shardsDir); err != nil {
		w.log.Warn("cluster: remove wal shards", "dir", w.shardsDir, "err", err)
	}
}

// ResumedCampaign names one campaign picked up from the WAL directory
// by ResumeCampaigns.
type ResumedCampaign struct {
	Token      string
	ReportPath string
	Err        error
}

// ResumeCampaigns scans cfg.WALDir for unfinished campaign journals
// and runs each to completion, writing the merged report next to the
// journal as <token>.report.json — how a restarted coordinator
// (`reese-serve -cluster-workers ... -cluster-wal DIR -resume`)
// finishes campaigns whose clients are long gone. Campaigns run
// sequentially: resumed work shares the worker fleet with live
// traffic and must not stampede it.
func ResumeCampaigns(ctx context.Context, cfg Config) []ResumedCampaign {
	var out []ResumedCampaign
	if cfg.WALDir == "" {
		return out
	}
	matches, err := filepath.Glob(filepath.Join(cfg.WALDir, "*.wal"))
	if err != nil {
		return out
	}
	for _, path := range matches {
		out = append(out, resumeCampaign(ctx, cfg, path))
	}
	return out
}

// resumeCampaign finishes the campaign journaled at path.
func resumeCampaign(ctx context.Context, cfg Config, path string) (rc ResumedCampaign) {
	rc.Token = strings.TrimSuffix(filepath.Base(path), ".wal")
	st, err := replayWAL(path)
	if err != nil || st == nil {
		rc.Err = fmt.Errorf("cluster: unreadable wal %s: %v", path, err)
		return rc
	}
	var req Campaign
	if err := json.Unmarshal(st.spec, &req); err != nil {
		rc.Err = fmt.Errorf("cluster: wal %s spec: %w", path, err)
		return rc
	}
	req.ResumeToken = rc.Token
	rep, err := Run(ctx, cfg, req)
	if err != nil {
		rc.Err = err
		return rc
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	rc.ReportPath = filepath.Join(cfg.WALDir, rc.Token+".report.json")
	rc.Err = wal.WriteFile(rc.ReportPath, append(raw, '\n'))
	return rc
}
