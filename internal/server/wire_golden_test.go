package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
)

// wireGoldenPath pins the server's fault-campaign wire formats: the
// /v1/faults payload (wall-clock fields zeroed, each trace blob reduced
// to its sha256) and the canonical JSON that normalize produces for
// faults requests and shard specs — the bytes the journal stores and
// the cache key hashes. A refactor of the campaign request path must
// leave the file unchanged. Regenerate only for an intentional wire
// change, and review the diff:
//
//	go test ./internal/server/ -run TestWireGolden -update-wire-golden
const wireGoldenPath = "testdata/wire.golden.json"

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire.golden.json")

// wireDoc is the golden document; every field holds indented JSON.
type wireDoc struct {
	FaultsTriaged   json.RawMessage   `json:"faults_triaged"`
	FaultsAll       json.RawMessage   `json:"faults_all"`
	FaultsCanonical []json.RawMessage `json:"faults_canonical"`
	ShardCanonical  []json.RawMessage `json:"shard_canonical"`
}

// goldenFaultsRequests are a triaged single-workload campaign (whose
// payload carries escapes and "reportIdx/trialIdx" trace keys) and the
// all-workloads sweep, kept small enough for the race job.
var goldenFaultsRequests = []FaultsRequest{
	{Workload: "li", Injections: 24, Seed: 7, Structures: []string{"result", "regfile", "fetch-pc", "mem-word"}, Triage: true},
	{Injections: 3},
}

func goldenShardSpecs() []ShardSpec {
	base := config.Starting()
	base.Memory.L2.ECC = true
	return []ShardSpec{
		{Workload: "gcc", Injections: 100, ShardOffset: 40, ShardCount: 20},
		{Workload: "li", Machine: &base, Structures: []string{"regfile", "l2-line"}, Injections: 300, Seed: 9,
			TargetInsts: 12_000, CheckpointInterval: 512, ShardOffset: 250, ShardCount: 50, TriageDetected: true},
	}
}

// stableFaultsPayload re-encodes a /v1/faults result with the
// host-dependent fields cleared and the trace blobs hashed.
func stableFaultsPayload(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	var p FaultsPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	for i := range p.Reports {
		p.Reports[i].WallSeconds, p.Reports[i].InjectionsPerSec = 0, 0
	}
	for key, blob := range p.Traces {
		var compact bytes.Buffer
		if err := json.Compact(&compact, blob); err != nil {
			t.Fatalf("trace %q: %v", key, err)
		}
		sum := sha256.Sum256(compact.Bytes())
		p.Traces[key] = json.RawMessage(`"sha256:` + hex.EncodeToString(sum[:]) + `"`)
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWireGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var doc wireDoc
	for i, req := range goldenFaultsRequests {
		v := awaitJob(t, ts.URL, postJSON(t, ts.URL+"/v1/faults", req).ID)
		if v.State != StateDone {
			t.Fatalf("faults request %d ended %s: %s", i, v.State, v.Error)
		}
		payload := stableFaultsPayload(t, v.Result)
		if i == 0 {
			doc.FaultsTriaged = payload
		} else {
			doc.FaultsAll = payload
		}
		canon, err := req.normalize(DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		doc.FaultsCanonical = append(doc.FaultsCanonical, raw)
	}
	for _, spec := range goldenShardSpecs() {
		canon, err := spec.normalize(DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		doc.ShardCanonical = append(doc.ShardCanonical, raw)
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateWireGolden {
		if err := os.MkdirAll(filepath.Dir(wireGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-wire-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fault-campaign wire format drifted from %s\n got:\n%s\n(if intentional, rerun with -update-wire-golden)", wireGoldenPath, got)
	}
}
