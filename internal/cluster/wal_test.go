package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/server"
)

func testWALLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testPayload(offset, count, plan int) *server.ShardPayload {
	return &server.ShardPayload{
		Report: harness.CampaignReport{
			Shard:    &harness.ShardRange{Offset: offset, Count: count, Plan: plan},
			Injected: uint64(count),
		},
	}
}

// A WAL written by one coordinator must replay in a second one: spec,
// windows, and completed payloads all intact and hash-verified.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 20, Seed: 3}
	specs := shardSpecs(req, 2, 5)

	w, st, err := openCampaignWAL(dir, "round-trip", testWALLogger())
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("fresh WAL replayed prior state")
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAssign(0, "http://worker-a"); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 2} {
		if err := w.appendComplete(idx, testPayload(specs[idx].ShardOffset, specs[idx].ShardCount, 20)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	w2, st2, err := openCampaignWAL(dir, "round-trip", testWALLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if st2 == nil {
		t.Fatal("written WAL replayed as fresh")
	}
	spec, _ := json.Marshal(canonicalCampaign(req))
	if string(st2.spec) != string(spec) {
		t.Errorf("replayed spec differs:\n got %s\nwant %s", st2.spec, spec)
	}
	if len(st2.windows) != len(specs) {
		t.Fatalf("replayed %d windows, want %d", len(st2.windows), len(specs))
	}
	for i, sp := range specs {
		if st2.windows[i] != [2]int{sp.ShardOffset, sp.ShardCount} {
			t.Errorf("window %d replayed as %v, want [%d %d]", i, st2.windows[i], sp.ShardOffset, sp.ShardCount)
		}
	}
	if len(st2.completed) != 2 {
		t.Fatalf("replayed %d completed shards, want 2", len(st2.completed))
	}
	for _, idx := range []int{0, 2} {
		p, err := w2.loadPayload(st2.completed[idx])
		if err != nil {
			t.Fatalf("load shard %d: %v", idx, err)
		}
		if p.Report.Shard.Offset != specs[idx].ShardOffset || p.Report.Shard.Count != specs[idx].ShardCount {
			t.Errorf("shard %d payload window %+v", idx, p.Report.Shard)
		}
	}
}

// A crash mid-append leaves a torn final line; replay must stop at the
// last good record instead of erroring or inventing state.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 10, Seed: 1}
	specs := shardSpecs(req, 1, 5)

	w, _, err := openCampaignWAL(dir, "torn", testWALLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	if err := w.appendComplete(0, testPayload(0, 5, 10)); err != nil {
		t.Fatal(err)
	}
	w.close()

	path := filepath.Join(dir, "torn.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"complete","shard":1,"dig`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := replayWAL(path)
	if err != nil {
		t.Fatalf("torn tail made replay error: %v", err)
	}
	if st == nil {
		t.Fatal("torn tail lost the whole journal")
	}
	if len(st.completed) != 1 {
		t.Fatalf("torn tail replayed %d completed shards, want 1 (the durable one)", len(st.completed))
	}
	if _, ok := st.completed[0]; !ok {
		t.Error("the durable completion (shard 0) did not survive the torn tail")
	}
}

// A payload file damaged on disk must fail its hash check and demote
// the shard to not-done — the WAL can lose work, never corrupt it.
func TestWALCorruptPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 10, Seed: 1}
	specs := shardSpecs(req, 1, 5)

	w, _, err := openCampaignWAL(dir, "corrupt", testWALLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	if err := w.appendComplete(0, testPayload(0, 5, 10)); err != nil {
		t.Fatal(err)
	}

	st, err := replayWAL(filepath.Join(dir, "corrupt.wal"))
	if err != nil || st == nil {
		t.Fatalf("replay: %v", err)
	}
	digest := st.completed[0]
	file := filepath.Join(dir, "corrupt.shards", digest+".json")
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The file no longer hashes to its name — loadPayload must refuse it.
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) == digest {
		t.Fatal("bit flip did not change the hash; test is broken")
	}
	if _, err := w.loadPayload(digest); err == nil {
		t.Fatal("corrupt payload file loaded without error")
	}
	w.close()
}

// A resume token that names a different campaign must hard-error, not
// silently merge two campaigns' shards.
func TestWALSpecMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	reqA := Campaign{Workload: "li", Machine: &machine, Injections: 20, Seed: 3, ResumeToken: "shared-token"}
	specs := shardSpecs(reqA, 1, 5)

	w, _, err := openCampaignWAL(dir, campaignToken(reqA), testWALLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(reqA, specs); err != nil {
		t.Fatal(err)
	}
	w.close()

	reqB := reqA
	reqB.Seed = 4 // different campaign, same token
	cfg := testClusterConfig([]string{"http://127.0.0.1:0"})
	cfg.WALDir = dir
	_, err = Run(context.Background(), cfg, reqB)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("spec mismatch under a reused token returned %v, want a spec-mismatch error", err)
	}
}

// ResumeCampaigns must find an interrupted campaign's journal, finish
// the campaign, and write its merged report next to the journal — the
// `reese-serve -resume` startup path.
func TestResumeCampaignsScansDir(t *testing.T) {
	machine := config.Starting().WithReese()
	walDir := t.TempDir()
	campaign := Campaign{
		Workload: "li", Machine: &machine, Injections: 20, Seed: 3,
		ShardSize: 5, ResumeToken: "orphaned-campaign",
	}

	// Interrupt a campaign after its first completed shard.
	cfg := testClusterConfig(newWorkers(t, 1))
	cfg.WALDir = walDir
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.OnEvent = func(ev Event) {
		if ev.Type == "completed" {
			once.Do(cancel)
		}
	}
	if _, err := Run(ctx, cfg, campaign); err == nil {
		t.Fatal("interrupted run returned no error; nothing left to resume")
	}

	cfg.OnEvent = nil
	results := ResumeCampaigns(context.Background(), cfg)
	if len(results) != 1 {
		t.Fatalf("ResumeCampaigns found %d campaigns, want 1", len(results))
	}
	rc := results[0]
	if rc.Err != nil {
		t.Fatalf("resume failed: %v", rc.Err)
	}
	if rc.Token != "orphaned-campaign" {
		t.Errorf("resumed token %q", rc.Token)
	}
	raw, err := os.ReadFile(rc.ReportPath)
	if err != nil {
		t.Fatalf("resumed report not written: %v", err)
	}
	var rep harness.CampaignReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("resumed report is not a CampaignReport: %v", err)
	}
	if rep.Injected != 20 {
		t.Errorf("resumed report ran %d injections, want 20", rep.Injected)
	}
	if matches, _ := filepath.Glob(filepath.Join(walDir, "*.wal")); len(matches) != 0 {
		t.Errorf("resumed campaign left WAL files behind: %v", matches)
	}
}

// Tokens become filenames; anything exotic must be hashed, not trusted.
func TestSanitizeToken(t *testing.T) {
	if got := sanitizeToken("ok-token_1.2"); got != "ok-token_1.2" {
		t.Errorf("clean token rewritten to %q", got)
	}
	for _, bad := range []string{"../../etc/passwd", "a b", strings.Repeat("x", 200), ""} {
		got := sanitizeToken(bad)
		if strings.ContainsAny(got, "/\\ ") || len(got) != 32 {
			t.Errorf("sanitizeToken(%q) = %q, want a 32-char hash", bad, got)
		}
	}
}

// FuzzReplayWAL: no WAL content — valid, torn, hostile — may panic the
// replayer, return state without a campaign record, or report a
// completed shard outside the journaled windows. The WAL can lose work,
// never invent it.
func FuzzReplayWAL(f *testing.F) {
	f.Add([]byte(`{"t":"campaign","spec":{"workload":"li"},"shards":[[0,5],[5,5]],"shard":0}` + "\n" +
		`{"t":"assign","shard":1,"worker":"http://w"}` + "\n" +
		`{"t":"complete","shard":1,"digest":"ab"}` + "\n"))
	f.Add([]byte(`{"t":"complete","shard":0,"digest":"ab"}` + "\n"))
	f.Add([]byte(`{"t":"campaign","spec":{},"shards":[[0,1]],"shard":0}` + "\n" + `{"t":"complete","shard":7,"dig`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := replayWAL(path)
		if err != nil {
			t.Fatalf("replay must tolerate any content, got %v", err)
		}
		if st == nil {
			return
		}
		if len(st.spec) == 0 || len(st.windows) == 0 {
			t.Fatalf("state without a campaign record: spec %q windows %v", st.spec, st.windows)
		}
		for idx, digest := range st.completed {
			if idx < 0 || idx >= len(st.windows) || digest == "" {
				t.Fatalf("completed shard %d (digest %q) outside %d journaled windows", idx, digest, len(st.windows))
			}
		}
	})
}
