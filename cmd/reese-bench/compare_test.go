package main

import (
	"strings"
	"testing"
)

// testSpec is a one-workload, two-metric benchmark definition.
func testSpec(t *testing.T) *Spec {
	t.Helper()
	s := &Spec{
		Workloads: []Workload{{Name: "w", Why: "test"}},
		EndToEnd: []Metric{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		},
		PerLayer: []Metric{{Name: "x.y", Unit: "count", Better: "higher"}},
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// runs makes one record per value, seeds 1, 2, ..., with latency fixed
// at 10 ms and the same digests on every run.
func runs(ops ...float64) []record {
	var out []record
	for i, v := range ops {
		out = append(out, record{
			Workload: "w", Seed: uint64(i + 1), Seconds: 12, Scale: 1,
			Stamp:     Stamp{GoVersion: "go1.x", GOMAXPROCS: 2, NProc: 2, CPUModel: "cpu", Revision: "a"},
			Attempted: 100,
			Metrics:   map[string]float64{"ops_per_s": v, "lat_p50_ms": 10},
			Digests:   map[string]string{"0/0": "d1", "0/1": "d2"},
		})
	}
	return out
}

func steady(base float64) []record {
	return runs(base, base+1, base-1, base+0.5, base-0.5, base+0.2, base-0.2, base+0.8, base-0.8, base)
}

func verdictOf(t *testing.T, res compareResult, metric string) string {
	t.Helper()
	for _, r := range res.Rows {
		if r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	for _, c := range []struct {
		name           string
		parent, change []record
		claim          string
		want           string
		fails          bool
	}{
		{"claimed gain wins", steady(100), steady(120), "w:ops_per_s", verdictWin, false},
		{"claim without a gain", steady(100), steady(100), "w:ops_per_s", verdictNotMet, true},
		{"claim on too few pairs", steady(100)[:9], steady(120)[:9], "w:ops_per_s", verdictNotMet, true},
		{"same code is unchanged", steady(100), steady(101), "", verdictUnchanged, false},
		{"regression beyond the bound", steady(100), steady(80), "", verdictWorse, true},
		{"gain beyond the bound", steady(100), steady(120), "", verdictBetter, false},
		{"spread wider than the bound", runs(60, 140, 80, 120, 100), runs(55, 130, 75, 115, 95), "", verdictUnresolved, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := compareSets(spec, c.parent, c.change, c.claim)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictOf(t, res, "ops_per_s"); got != c.want {
				t.Errorf("verdict %q, want %q", got, c.want)
			}
			if got := verdictOf(t, res, "lat_p50_ms"); got != verdictUnchanged {
				t.Errorf("unclaimed steady metric: verdict %q, want unchanged", got)
			}
			if res.failed() != c.fails {
				t.Errorf("failed() = %v, want %v", res.failed(), c.fails)
			}
		})
	}
}

func TestCompareFlagsDigestAndFailureChanges(t *testing.T) {
	spec := testSpec(t)
	change := steady(100)
	change[3].Digests = map[string]string{"0/0": "d1", "0/1": "other", "0/2": "only in the change"}
	res, err := compareSets(spec, steady(100), change, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "seed 4: output digest of operation 0/1 changed") {
		t.Errorf("problems %q, want one digest change on seed 4", res.Problems)
	}
	if !res.failed() {
		t.Error("a changed digest must fail the comparison")
	}

	change = steady(100)
	change[0].Failed = 1
	res, err = compareSets(spec, steady(100), change, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.failed() || len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "failed share rose") {
		t.Errorf("problems %q, want a failed-share rise", res.Problems)
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	spec := testSpec(t)
	change := steady(100)
	change[2].Stamp.CPUModel = "another cpu"
	if _, err := compareSets(spec, steady(100), change, ""); err == nil || !strings.Contains(err.Error(), "different environments") {
		t.Errorf("err = %v, want a refusal naming different environments", err)
	}
	change = steady(100)
	change[0].Stamp.Revision = "b" // the revision is what a comparison compares
	if _, err := compareSets(spec, steady(100), change, ""); err != nil {
		t.Errorf("a different revision must compare: %v", err)
	}
	change = steady(100)
	change[0].Seconds = 6
	if _, err := compareSets(spec, steady(100), change, ""); err == nil {
		t.Error("results with different run lengths must not compare")
	}
	if _, err := compareSets(spec, steady(100), steady(100), "w:nope"); err == nil {
		t.Error("a claim naming no metric must be refused")
	}
}
