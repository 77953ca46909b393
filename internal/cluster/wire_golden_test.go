package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
)

// wireGoldenPath pins the coordinator's durable campaign identity: the
// canonical spec bytes the WAL stores (and compares on resume) and the
// campaign token the WAL files are named by. Changing either orphans
// every journaled campaign, so a refactor must leave the file
// unchanged. Regenerate only for an intentional format change:
//
//	go test ./internal/cluster/ -run TestWireGolden -update-wire-golden
const wireGoldenPath = "testdata/wire.golden.json"

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire.golden.json")

type campaignWire struct {
	Canonical json.RawMessage `json:"canonical"`
	Token     string          `json:"token"`
}

func goldenCampaigns() []Campaign {
	reese := config.Starting().WithReese()
	return []Campaign{
		{Workload: "gcc", Injections: 400, Seed: 3},
		{Workload: "li", Machine: &reese, Structures: []string{"result", "rsq-operand"}, Injections: 1200,
			Seed: 11, TargetInsts: 20_000, CheckpointInterval: 256, ShardSize: 100, Triage: true,
			TriageDetected: true, ResumeToken: "nightly-li"},
	}
}

func TestWireGolden(t *testing.T) {
	var doc []campaignWire
	for _, c := range goldenCampaigns() {
		raw, err := json.Marshal(canonicalCampaign(c))
		if err != nil {
			t.Fatal(err)
		}
		doc = append(doc, campaignWire{Canonical: raw, Token: campaignToken(c)})
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
		t.Errorf("campaign identity drifted from %s\n got:\n%s\n(if intentional, rerun with -update-wire-golden)", wireGoldenPath, got)
	}
}
