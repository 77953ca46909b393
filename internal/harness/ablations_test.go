package harness

import (
	"strings"
	"testing"

	"reese/internal/config"
)

func TestPredictorSweep(t *testing.T) {
	tbl, gaps, err := PredictorSweep(Options{Insts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gshare", "bimodal", "static-taken"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// The REESE gap is a property of the execution substrate, not the
	// predictor: it must stay in a sane band for every dynamic
	// predictor (statics change the baseline so much the gap shifts).
	for _, k := range []config.PredictorKind{config.PredGshare, config.PredBimodal, config.PredCombining} {
		if gaps[k] < 3 || gaps[k] > 35 {
			t.Errorf("%s: gap %.1f%% out of band", k, gaps[k])
		}
	}
}

func TestPredictorKindString(t *testing.T) {
	kinds := []config.PredictorKind{
		config.PredGshare, config.PredBimodal, config.PredCombining,
		config.PredStaticTaken, config.PredStaticNotTaken,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if config.PredictorKind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

func TestGshareBeatsStaticOnPipeline(t *testing.T) {
	opt := Options{Insts: 40_000}.normalize()
	g, err := runOne(config.Starting(), "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runOne(config.Starting().WithPredictor(config.PredStaticNotTaken), "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if g.IPC <= s.IPC {
		t.Errorf("gshare IPC %.3f should beat static-not-taken %.3f", g.IPC, s.IPC)
	}
	if g.BranchAcc <= s.BranchAcc {
		t.Errorf("gshare accuracy %.3f should beat static %.3f", g.BranchAcc, s.BranchAcc)
	}
}

func TestHighWaterSweep(t *testing.T) {
	tbl, res, err := HighWaterSweep([]int{4, 31}, Options{Insts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "high water") {
		t.Errorf("table:\n%s", tbl)
	}
	// A very low mark gives R-stream priority almost always, starving
	// the P stream: it must not beat the near-full mark.
	if res[4] > res[31] {
		t.Errorf("high-water 4 (%.3f IPC) should not beat 31 (%.3f)", res[4], res[31])
	}
}

func TestDetectionLatencyVsRSQ(t *testing.T) {
	tbl, res, err := DetectionLatencyVsRSQ([]int{8, 64}, Options{Insts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "rsq size") {
		t.Errorf("table:\n%s", tbl)
	}
	// The paper's §2 Δt argument: a longer queue separates the P and R
	// executions further.
	if res[8] >= res[64] {
		t.Errorf("detection latency should grow with RSQ size: rsq8=%.1f rsq64=%.1f", res[8], res[64])
	}
	if res[8] <= 0 {
		t.Error("latency must be positive")
	}
}

func TestWrongPathSweep(t *testing.T) {
	tbl, err := WrongPathSweep(Options{Insts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stall", "wrong-path", "gap %"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestSchemeComparison(t *testing.T) {
	tbl, res, err := SchemeComparison(Options{Insts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "REESE") || !strings.Contains(tbl, "duplicate-at-scheduler") {
		t.Errorf("table:\n%s", tbl)
	}
	if res["reese"] <= res["dup-dispatch"] {
		t.Errorf("REESE (%.3f) should beat duplicate-at-scheduler (%.3f) — §4.4's point",
			res["reese"], res["dup-dispatch"])
	}
	if res["baseline"] <= res["reese"] {
		t.Errorf("baseline (%.3f) should beat REESE (%.3f)", res["baseline"], res["reese"])
	}
}

func TestPermanentFaultCoverage(t *testing.T) {
	tbl, err := PermanentFaultCoverage(Options{Insts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RESO", "silent corruption", "reported to the user"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}
