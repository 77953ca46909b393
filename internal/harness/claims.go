package harness

import (
	"fmt"
	"slices"
	"strings"

	"reese/internal/config"
	"reese/internal/fault"
)

// Claim is one checkable statement from the paper's §6.1/§7 analysis.
type Claim struct {
	ID        string
	Statement string
	Paper     string
	Measured  string
	Pass      bool
}

// CheckClaims evaluates the paper's headline claims against fresh
// simulations and reports each as pass/fail. This is the runnable
// version of the TestPaperClaim* suite, for the command line.
func CheckClaims(opt Options) ([]Claim, error) {
	opt = opt.normalize()
	var claims []Claim

	// One pass over every grid the figure claims read.
	figs, err := runGrids(slices.Concat([]grid{figure2Grid, figure4Grid, figure5Grid}, figure7Grids), opt)
	if err != nil {
		return nil, err
	}
	fig2, fig4, fig5 := figs[0], figs[1], figs[2]
	gap := fig2.GapPercent("Baseline", "REESE")
	claims = append(claims, Claim{
		ID:        "gap-band",
		Statement: "REESE average IPC is 11-16% below baseline without spares (starting config)",
		Paper:     "11-16%",
		Measured:  fmt.Sprintf("%.1f%%", gap),
		Pass:      gap >= 8 && gap <= 25,
	})

	gap2 := fig2.GapPercent("Baseline", "R+2ALU")
	claims = append(claims, Claim{
		ID:        "spares-help",
		Statement: "Two spare integer ALUs shrink the gap",
		Paper:     "14.0% -> 8.0% (average over configs)",
		Measured:  fmt.Sprintf("%.1f%% -> %.1f%%", gap, gap2),
		Pass:      gap2 < gap,
	})

	multGain := (fig2.Average("R+2ALU+1Mult") - fig2.Average("R+2ALU")) / fig2.Average("R+2ALU") * 100
	ijpegGain := fig2.IPC["ijpeg"]["R+2ALU+1Mult"] - fig2.IPC["ijpeg"]["R+2ALU"]
	claims = append(claims, Claim{
		ID:        "mult-minor",
		Statement: "A spare multiplier/divider has little average effect (it helps only the mul/div-heavy benchmark)",
		Paper:     "\"little effect on average IPC values\"",
		Measured:  fmt.Sprintf("average %+.1f%%, ijpeg %+.3f IPC", multGain, ijpegGain),
		Pass:      multGain < 5 && ijpegGain > 0,
	})

	g4 := fig4.GapPercent("Baseline", "REESE")
	g5 := fig5.GapPercent("Baseline", "REESE")
	claims = append(claims, Claim{
		ID:        "ports-help",
		Statement: "Added memory ports significantly improve REESE",
		Paper:     "\"significantly improved the performance of REESE\"",
		Measured:  fmt.Sprintf("gap %.1f%% (2 ports) -> %.1f%% (4 ports)", g4, g5),
		Pass:      g5 < g4,
	})

	byLabel := map[string]Figure7Point{}
	for _, p := range figure7Points(figs[3:]) {
		byLabel[p.Label] = p
	}
	p256 := byLabel["RUU=256"]
	p256f := byLabel["RUU=256+FUs"]
	claims = append(claims, Claim{
		ID:        "ruu-alone",
		Statement: "Growing only the RUU leaves a substantial gap",
		Paper:     "~15% at RUU 64/256",
		Measured:  fmt.Sprintf("%.1f%% at RUU 256", p256.GapPercent),
		Pass:      p256.GapPercent >= 8,
	})
	claims = append(claims, Claim{
		ID:        "fus-close",
		Statement: "Doubling the functional units shrinks the gap dramatically",
		Paper:     "-> ~1.5%",
		Measured:  fmt.Sprintf("%.1f%% -> %.1f%%", p256.GapPercent, p256f.GapPercent),
		Pass:      p256f.GapPercent < p256.GapPercent/2,
	})

	// Result-structure faults only: the paper's original model, where
	// REESE promises complete coverage.
	cr, err := Campaign(CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting().WithReese(),
		Structures: []fault.Struct{fault.StructResult},
		Injections: 100,
		Seed:       0xC1A1,
	}, opt)
	if err != nil {
		return nil, err
	}
	claims = append(claims, Claim{
		ID:        "detection",
		Statement: "REESE detects injected result faults and recovers",
		Paper:     "(design goal, §4.2-4.3)",
		Measured:  fmt.Sprintf("coverage %.0f%%, mean latency %.1f cycles", cr.Coverage*100, cr.DetectionLatencyMean),
		Pass:      cr.Coverage > 0.99,
	})

	base, err := Campaign(CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting(),
		Structures: []fault.Struct{fault.StructResult},
		Injections: 100,
		Seed:       0xC1A1,
	}, opt)
	if err != nil {
		return nil, err
	}
	silent := base.SDC + base.Masked
	claims = append(claims, Claim{
		ID:        "baseline-silent",
		Statement: "The unprotected baseline commits the same faults silently",
		Paper:     "(implied)",
		Measured:  fmt.Sprintf("%d of %d faults committed undetected (%d SDC, %d masked)", silent, base.Injected, base.SDC, base.Masked),
		Pass:      base.Detected == 0 && base.Recovered == 0 && silent+base.Hang == base.Injected,
	})

	return claims, nil
}

// ClaimsReport renders the claim checks.
func ClaimsReport(claims []Claim) string {
	var b strings.Builder
	b.WriteString("Paper-claim checks (see EXPERIMENTS.md for discussion)\n")
	b.WriteString(strings.Repeat("-", 72))
	b.WriteByte('\n')
	pass := 0
	for _, c := range claims {
		status := "FAIL"
		if c.Pass {
			status = "PASS"
			pass++
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", status, c.ID, c.Statement)
		fmt.Fprintf(&b, "       paper: %s\n", c.Paper)
		fmt.Fprintf(&b, "       measured: %s\n", c.Measured)
	}
	fmt.Fprintf(&b, "%d/%d claims reproduced\n", pass, len(claims))
	return b.String()
}

// FigureCSV renders a figure as CSV (one row per workload, one column
// per variant), for plotting.
func FigureCSV(f *FigureResult) string {
	var b strings.Builder
	b.WriteString("bench")
	for _, v := range f.Variants {
		b.WriteString(",")
		b.WriteString(v)
	}
	b.WriteByte('\n')
	rows := append([]string{}, f.Workloads...)
	for _, w := range rows {
		b.WriteString(w)
		for _, v := range f.Variants {
			fmt.Fprintf(&b, ",%.4f", f.IPC[w][v])
		}
		b.WriteByte('\n')
	}
	b.WriteString("AV")
	for _, v := range f.Variants {
		fmt.Fprintf(&b, ",%.4f", f.Average(v))
	}
	b.WriteByte('\n')
	return b.String()
}
