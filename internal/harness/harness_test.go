package harness

import (
	"strings"
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
)

// testOptions keeps unit-test runs quick; the paper-claim tests below
// use larger budgets.
func testOptions() Options { return Options{Insts: 60_000} }

func TestTable1Rendering(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Fetch Queue Size", "16", "RUU Size", "32 KB", "512 KB", "gshare", "4 IntALU, 1 IntMult/Div, 2 MemPorts"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	s := Table2()
	for _, want := range []string{"gcc", "go", "ijpeg", "li", "perl", "vortex"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigure2Structure(t *testing.T) {
	fig, err := Figure2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Workloads) != 6 {
		t.Errorf("workloads = %d", len(fig.Workloads))
	}
	if len(fig.Variants) != 5 {
		t.Errorf("variants = %d, want 5 bar groups", len(fig.Variants))
	}
	for _, w := range fig.Workloads {
		for _, v := range fig.Variants {
			ipc := fig.IPC[w][v]
			if ipc <= 0 || ipc > 8 {
				t.Errorf("%s/%s IPC = %v implausible", w, v, ipc)
			}
		}
	}
	tbl := fig.Table()
	if !strings.Contains(tbl, "AV") || !strings.Contains(tbl, "Figure 2") {
		t.Errorf("table rendering:\n%s", tbl)
	}
}

// TestPaperClaimReeseGapBand checks §6.1: "Average IPC for REESE is only
// 11-16% worse than the baseline without any spare elements." We accept
// a slightly wider band (8-25%) for the synthetic workloads.
func TestPaperClaimReeseGapBand(t *testing.T) {
	fig, err := Figure2(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gap := fig.GapPercent("Baseline", "REESE")
	if gap < 8 || gap > 25 {
		t.Errorf("REESE average gap = %.1f%%, want within the paper's neighbourhood (8-25%%)", gap)
	}
	// Every workload must individually pay some overhead.
	for _, w := range fig.Workloads {
		if fig.IPC[w]["REESE"] > fig.IPC[w]["Baseline"]*1.02 {
			t.Errorf("%s: REESE (%.3f) should not beat baseline (%.3f)", w, fig.IPC[w]["REESE"], fig.IPC[w]["Baseline"])
		}
	}
}

// TestPaperClaimSparesShrinkGap checks §6.1: spare elements shrink the
// average gap (the paper reports 14.0% -> 8.0% across configurations).
func TestPaperClaimSparesShrinkGap(t *testing.T) {
	fig, err := Figure2(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gap := fig.GapPercent("Baseline", "REESE")
	gap2 := fig.GapPercent("Baseline", "R+2ALU")
	if gap2 >= gap {
		t.Errorf("2 spare ALUs should shrink the gap: %.1f%% -> %.1f%%", gap, gap2)
	}
}

// TestPaperClaimMultSpareMinor checks §6: "a spare multiplier/divider
// has little effect on average IPC values" — except on the
// multiply-heavy benchmark.
func TestPaperClaimMultSpareMinor(t *testing.T) {
	fig, err := Figure2(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	withoutMult := fig.Average("R+2ALU")
	withMult := fig.Average("R+2ALU+1Mult")
	if delta := (withMult - withoutMult) / withoutMult; delta > 0.05 {
		t.Errorf("spare multiplier moved average IPC by %.1f%%; paper says the effect is small", delta*100)
	}
	// But ijpeg (the mul/div benchmark) should benefit.
	if fig.IPC["ijpeg"]["R+2ALU+1Mult"] <= fig.IPC["ijpeg"]["R+2ALU"] {
		t.Error("ijpeg should benefit from a spare multiplier/divider")
	}
}

// TestPaperClaimMemPortsHelpReese checks §6.1/Figure 5: "the added
// memory ports significantly improved the performance of REESE" — the
// REESE gap with 4 ports must be clearly below the gap with 2.
func TestPaperClaimMemPortsHelpReese(t *testing.T) {
	opt := DefaultOptions()
	f4, err := Figure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	gap2ports := f4.GapPercent("Baseline", "REESE")
	gap4ports := f5.GapPercent("Baseline", "REESE")
	if gap4ports >= gap2ports {
		t.Errorf("extra memory ports should shrink the REESE gap: %.1f%% (2 ports) -> %.1f%% (4 ports)", gap2ports, gap4ports)
	}
}

// TestPaperClaimFigure7Shape checks §6.1/Figure 7: growing the RUU alone
// leaves a substantial gap; doubling the functional units shrinks it
// dramatically (paper: ~15% -> ~1.5%).
func TestPaperClaimFigure7Shape(t *testing.T) {
	points, err := Figure7(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Figure7Point{}
	for _, p := range points {
		byLabel[p.Label] = p
	}
	for _, ruu := range []string{"RUU=64", "RUU=256"} {
		plain := byLabel[ruu]
		fus := byLabel[ruu+"+FUs"]
		if plain.GapPercent < 8 {
			t.Errorf("%s: gap %.1f%% — growing the RUU alone should NOT close the gap", ruu, plain.GapPercent)
		}
		if fus.GapPercent >= plain.GapPercent/2 {
			t.Errorf("%s: doubling FUs should cut the gap well below half: %.1f%% -> %.1f%%", ruu, plain.GapPercent, fus.GapPercent)
		}
	}
}

// TestPaperClaimIdleCapacity checks the §4.1 premise: substantial idle
// capacity exists on the baseline (IPC well below peak width).
func TestPaperClaimIdleCapacity(t *testing.T) {
	s, err := IdleCapacity(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "gcc") {
		t.Errorf("idle capacity table:\n%s", s)
	}
	fig, err := Figure2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	avg := fig.Average("Baseline")
	if frac := avg / float64(config.Starting().Width); frac > 0.7 {
		t.Errorf("baseline uses %.0f%% of peak width; the idle-capacity premise wants well under 70%%", frac*100)
	}
}

func TestFigure6Summary(t *testing.T) {
	rows, err := Figure6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 configurations", len(rows))
	}
	tbl := Figure6Table(rows)
	for _, want := range []string{"None", "RUU,LSQ 2X", "Ex. Q 2X", "MemPorts"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Figure 6 table missing %q", want)
		}
	}
	for _, r := range rows {
		if r.BaselineIPC <= 0 || r.ReeseIPC <= 0 {
			t.Errorf("%s: zero IPC", r.Config)
		}
	}
}

func TestCampaignCoverage(t *testing.T) {
	r, err := Campaign(CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting().WithReese(),
		Structures: []fault.Struct{fault.StructResult},
		Injections: 60,
		Seed:       0xBEEF,
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Injected == 0 {
		t.Fatal("campaign injected nothing")
	}
	if r.Coverage < 0.99 {
		t.Errorf("REESE coverage = %.2f, want ~1.0 (all result faults detected)", r.Coverage)
	}
	if r.DetectionLatencyMean <= 0 {
		t.Error("detection latency should be positive")
	}
	if got := r.Total(); got != r.Injected {
		t.Errorf("outcome counts sum to %d, want %d injected", got, r.Injected)
	}

	b, err := Campaign(CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting(),
		Structures: []fault.Struct{fault.StructResult},
		Injections: 60,
		Seed:       0xBEEF,
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.Detected != 0 {
		t.Errorf("baseline detected %d faults; it has no comparator", b.Detected)
	}
	if silent := b.SDC + b.Masked; silent+b.Hang != b.Injected {
		t.Errorf("baseline: %d of %d faults should commit silently or hang", silent, b.Injected)
	}
}

func TestSpareSearch(t *testing.T) {
	n, gaps, err := SpareSearch(config.Starting(), 4, 0.12, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) == 0 {
		t.Fatal("no gaps measured")
	}
	if n < 0 {
		t.Logf("tolerance not reached within 4 spares; gaps: %v", gaps)
	}
	// Gaps must not grow as spares are added (within noise).
	for i := 1; i < len(gaps); i++ {
		if gaps[i] > gaps[0]+2 {
			t.Errorf("gap grew with spares: %v", gaps)
		}
	}
}

func TestRSQSweep(t *testing.T) {
	tbl, res, err := RSQSweep([]int{4, 32}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "rsq size") {
		t.Errorf("table:\n%s", tbl)
	}
	if res[4] > res[32] {
		t.Errorf("RSQ 4 (%.3f IPC) should not beat RSQ 32 (%.3f)", res[4], res[32])
	}
}

func TestPartialReexecSweep(t *testing.T) {
	tbl, err := PartialReexecSweep([]int{1, 2, 4}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1/1", "1/2", "1/4", "coverage"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("partial-reexec table missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunGridRejectsUnknownWorkload(t *testing.T) {
	_, err := runOne(config.Starting(), "nonesuch", testOptions().normalize())
	if err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestCheckClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full claim suite is slow")
	}
	claims, err := CheckClaims(Options{Insts: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 8 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: paper %s, measured %s", c.ID, c.Paper, c.Measured)
		}
	}
	report := ClaimsReport(claims)
	if !strings.Contains(report, "PASS") || !strings.Contains(report, "claims reproduced") {
		t.Errorf("report rendering:\n%s", report)
	}
}

func TestFigureCSV(t *testing.T) {
	fig, err := Figure2(Options{Insts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	csv := FigureCSV(fig)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// header + 6 workloads + AV
	if len(lines) != 8 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "bench,Baseline,REESE") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != len(fig.Variants) {
			t.Errorf("row %q has wrong column count", l)
		}
	}
}
