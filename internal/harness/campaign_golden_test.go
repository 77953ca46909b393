package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
)

// campaignGolden is one machine's pinned campaign output: the
// single-process report, its per-trial JSONL and rendered table, and
// the report of each shard of a 2-shard split. The shard reports are
// the bytes the cluster WAL content-addresses, so they are pinned too.
type campaignGolden struct {
	Report json.RawMessage   `json:"report"`
	JSONL  string            `json:"jsonl"`
	Table  string            `json:"table"`
	Shards []json.RawMessage `json:"shards"`
}

// TestCampaignGolden pins the exact bytes a campaign produces — li, seed
// 7, 120 injections, on the REESE and baseline machines — so a change to
// how reports are assembled or finalised cannot drift the output
// unnoticed. Regenerate (only after an intentional format change) with:
//
//	go test ./internal/harness/ -run TestCampaignGolden -update-golden
func TestCampaignGolden(t *testing.T) {
	machines := []struct {
		name string
		cfg  config.Machine
	}{
		{"reese", config.Starting().WithReese()},
		{"baseline", config.Starting()},
	}
	doc := make(map[string]campaignGolden, len(machines))
	for _, m := range machines {
		base := CampaignSpec{Workload: "li", Machine: m.cfg, Injections: 120, Seed: 7}
		single, err := Campaign(base, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		var g campaignGolden
		if g.Report, err = json.Marshal(stripWall(single)); err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if err := single.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		g.JSONL = jsonl.String()
		g.Table = single.Table()
		for _, r := range splitRanges(base.Injections, 2) {
			spec := base
			rr := r
			spec.Shard = &rr
			rep, err := Campaign(spec, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(stripWall(rep))
			if err != nil {
				t.Fatal(err)
			}
			g.Shards = append(g.Shards, raw)
		}
		doc[m.name] = g
	}

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "campaign_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign output drifted from %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
