package harness

import (
	"fmt"
	"strconv"
	"strings"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/pipeline"
	"reese/internal/stats"
)

// ablation is one table of `reese-sweep -figure ablations`: the
// fault-free grids it reads, the fault-injected runs it makes, and how
// it renders both. Each run writes only its own slot, which render
// reads afterwards, so the runs of many ablations can share the pool.
type ablation struct {
	grids  []grid
	runs   []func(Options) error
	render func(figs []*FigureResult) string
}

// Ablations renders every ablation reese-sweep -figure ablations
// reports: RSQ size, partial re-execution, R-priority high-water mark,
// branch predictor, detection latency, misprediction model, redundancy
// scheme and permanent-fault coverage. Their fault-free cells run in
// one pass, each distinct cell once.
func Ablations(opt Options) (string, error) {
	return runAblations(opt, ablations()...)
}

// ablations lists the tables of Ablations in report order.
func ablations() []ablation {
	rsq, _ := rsqSweep([]int{4, 8, 16, 32, 64})
	hw, _ := highWaterSweep([]int{4, 8, 16, 24, 31})
	pred, _ := predictorSweep()
	lat, _ := detectionLatencyVsRSQ([]int{8, 16, 32, 64})
	schemes, _ := schemeComparison()
	return []ablation{rsq, partialReexecSweep([]int{1, 2, 4, 8}), hw, pred, lat,
		wrongPathSweep(), schemes, permanentFaultCoverage()}
}

// runAblations simulates the grids of all abls in one runGrids pass,
// then their fault-injected runs on the worker pool, and returns their
// tables separated by blank lines.
func runAblations(opt Options, abls ...ablation) (string, error) {
	opt = opt.normalize()
	var grids []grid
	var runs []func(Options) error
	for _, a := range abls {
		grids = append(grids, a.grids...)
		runs = append(runs, a.runs...)
	}
	figs, err := runGrids(grids, opt)
	if err == nil {
		err = forEach(len(runs), opt.Parallel, func(i int) error { return runs[i](opt) })
	}
	if err != nil {
		return "", err
	}
	tables := make([]string, len(abls))
	for i, a := range abls {
		tables[i], figs = a.render(figs[:len(a.grids)]), figs[len(a.grids):]
	}
	return strings.Join(tables, "\n"), nil
}

// knobSweep is an ablation over one knob of the REESE starting
// machine: a grid of the starting baseline and set(REESE, p) for each
// point p, rendered as one row per point — label(p), average IPC, gap
// to the baseline, then extra(fig, i) when extra is non-nil. The map
// receives each point's average IPC.
func knobSweep(title string, headers []string, points []int, label func(int) string,
	set func(config.Machine, int) config.Machine, extra func(fig *FigureResult, i int) string,
) (ablation, map[int]float64) {
	out := make(map[int]float64, len(points))
	g := grid{variants: []variant{{"Baseline", config.Starting()}}}
	for _, p := range points {
		g.variants = append(g.variants, variant{label(p), set(config.Starting().WithReese(), p)})
	}
	return ablation{grids: []grid{g}, render: func(figs []*FigureResult) string {
		t := stats.NewTable(title, headers...)
		baseAvg := figs[0].Average("Baseline")
		for i, p := range points {
			avg := figs[0].Average(label(p))
			out[p] = avg
			row := []string{label(p), fmt.Sprintf("%.3f", avg), fmt.Sprintf("%.1f", stats.PercentDelta(baseAvg, avg))}
			if extra != nil {
				row = append(row, extra(figs[0], i))
			}
			t.AddRow(row...)
		}
		return t.String()
	}}, out
}

// gapGrid is one row of a REESE-vs-baseline comparison: base and base
// with REESE, titled label.
func gapGrid(label string, base config.Machine) grid {
	return grid{title: label, variants: []variant{{"Baseline", base}, {"REESE", base.WithReese()}}}
}

// gapTable renders one row per gapGrid: both machines' average IPC and
// the REESE gap.
func gapTable(title, key string, figs []*FigureResult) string {
	t := stats.NewTable(title, key, "baseline IPC", "REESE IPC", "gap %")
	for _, fig := range figs {
		t.AddRow(fig.Title, fmt.Sprintf("%.3f", fig.Average("Baseline")),
			fmt.Sprintf("%.3f", fig.Average("REESE")),
			fmt.Sprintf("%.1f", fig.GapPercent("Baseline", "REESE")))
	}
	return t.String()
}

// RSQSweep is the DESIGN.md §8 ablation: REESE average IPC as a function
// of R-stream Queue size, exposing the paper's "appropriate length"
// sensitivity (§4.3).
func RSQSweep(sizes []int, opt Options) (string, map[int]float64, error) {
	a, out := rsqSweep(sizes)
	tbl, err := runAblations(opt, a)
	return tbl, out, err
}

func rsqSweep(sizes []int) (ablation, map[int]float64) {
	return knobSweep("Ablation: R-stream Queue size vs average IPC (starting config)",
		[]string{"rsq size", "avg IPC", "gap vs baseline %"},
		sizes, strconv.Itoa, config.Machine.WithRSQ, nil)
}

// PartialReexecSweep is the paper's §7 future-work experiment:
// re-execute only one in every n instructions, trading coverage for
// speed. Coverage is measured with randomly-placed faults (a periodic
// injector would alias with the deterministic skip pattern and report
// all-or-nothing coverage).
func PartialReexecSweep(everies []int, opt Options) (string, error) {
	return runAblations(opt, partialReexecSweep(everies))
}

func partialReexecSweep(everies []int) ablation {
	coverage := make([]float64, len(everies))
	a, _ := knobSweep("Ablation: partial re-execution (paper §7 future work)",
		[]string{"re-execute 1/N", "avg IPC", "gap vs baseline %", "coverage of injected faults"},
		everies, func(n int) string { return fmt.Sprintf("1/%d", n) }, config.Machine.WithPartialReexec,
		func(_ *FigureResult, i int) string { return fmt.Sprintf("%.0f%%", coverage[i]*100) })
	for i, n := range everies {
		a.runs = append(a.runs, func(opt Options) error {
			// Roughly one randomly-placed fault per 2000 instructions.
			cpu, err := newCPU(config.Starting().WithReese().WithPartialReexec(n), "gcc", 2,
				fault.NewRandom(1<<32/2000, 0xFEED), opt)
			if err != nil {
				return err
			}
			res, err := cpu.RunContext(opt.Ctx, opt.Insts)
			if err == nil && res.FaultsInjected > 0 {
				coverage[i] = float64(res.FaultsDetected) / float64(res.FaultsInjected)
			}
			return err
		})
	}
	return a
}

// PredictorSweep compares branch predictors on both machines — a
// sensitivity check the paper doesn't run (it fixes gshare) but whose
// outcome it depends on: REESE inherits the baseline's control-flow
// behaviour because R-stream instructions carry resolved outcomes, so
// the gap should be roughly predictor independent.
func PredictorSweep(opt Options) (string, map[config.PredictorKind]float64, error) {
	a, gaps := predictorSweep()
	tbl, err := runAblations(opt, a)
	return tbl, gaps, err
}

func predictorSweep() (ablation, map[config.PredictorKind]float64) {
	kinds := []config.PredictorKind{config.PredGshare, config.PredCombining, config.PredBimodal,
		config.PredStaticTaken, config.PredStaticNotTaken}
	gaps := make(map[config.PredictorKind]float64, len(kinds))
	var grids []grid
	for _, k := range kinds {
		grids = append(grids, gapGrid(k.String(), config.Starting().WithPredictor(k)))
	}
	return ablation{grids: grids, render: func(figs []*FigureResult) string {
		for i, k := range kinds {
			gaps[k] = figs[i].GapPercent("Baseline", "REESE")
		}
		return gapTable("Ablation: branch predictor sensitivity (average over 6 benchmarks)", "predictor", figs)
	}}, gaps
}

// HighWaterSweep varies the RSQ occupancy threshold at which R-stream
// instructions take scheduling priority (the paper's counter logic,
// §4.3). Too low starves the P stream; too high risks full-queue stalls.
func HighWaterSweep(marks []int, opt Options) (string, map[int]float64, error) {
	a, out := highWaterSweep(marks)
	tbl, err := runAblations(opt, a)
	return tbl, out, err
}

func highWaterSweep(marks []int) (ablation, map[int]float64) {
	return knobSweep("Ablation: R-priority high-water mark (RSQ=32, starting config)",
		[]string{"high water", "avg IPC", "gap vs baseline %", "priority cycles (gcc)"},
		marks, strconv.Itoa, config.Machine.WithRSQHighWater,
		func(fig *FigureResult, i int) string {
			return fmt.Sprint(fig.result("gcc", strconv.Itoa(marks[i])).Reese.PriorityCycles)
		})
}

// DetectionLatencyVsRSQ measures how the RSQ size stretches the
// P-to-R-execution separation — the Δt of the paper's §2 argument: a
// longer separation tolerates longer-lived transients, at the cost of
// delaying every commit.
func DetectionLatencyVsRSQ(sizes []int, opt Options) (string, map[int]float64, error) {
	a, out := detectionLatencyVsRSQ(sizes)
	tbl, err := runAblations(opt, a)
	return tbl, out, err
}

func detectionLatencyVsRSQ(sizes []int) (ablation, map[int]float64) {
	out := make(map[int]float64, len(sizes))
	results := make([]pipeline.Result, len(sizes))
	p95 := make([]uint64, len(sizes))
	var runs []func(Options) error
	for i, size := range sizes {
		runs = append(runs, func(opt Options) error {
			cfg := config.Starting().WithReese().WithRSQ(size)
			cpu, err := newCPU(cfg, "gcc", 2, &fault.Periodic{Interval: 5_000, Start: 2_500}, opt)
			if err != nil {
				return err
			}
			if results[i], err = cpu.RunContext(opt.Ctx, opt.Insts); err != nil {
				return err
			}
			p95[i] = cpu.DetectionLatencies().Percentile(95)
			return nil
		})
	}
	return ablation{runs: runs, render: func([]*FigureResult) string {
		t := stats.NewTable("Ablation: detection latency vs R-stream Queue size (gcc, faults every 5k insts)",
			"rsq size", "mean detect cycles", "p95", "max", "IPC")
		for i, size := range sizes {
			res := results[i]
			out[size] = res.DetectionLatencyMean
			t.AddRow(fmt.Sprint(size), fmt.Sprintf("%.1f", res.DetectionLatencyMean),
				fmt.Sprint(p95[i]), fmt.Sprint(res.DetectionLatencyMax), fmt.Sprintf("%.3f", res.IPC))
		}
		return t.String()
	}}, out
}

// WrongPathSweep compares the default stall-until-resolve misprediction
// model against full wrong-path execution modelling, for both machines.
// The REESE-vs-baseline gap should be robust to the choice — wrong-path
// work steals resources from both streams alike.
func WrongPathSweep(opt Options) (string, error) {
	return runAblations(opt, wrongPathSweep())
}

func wrongPathSweep() ablation {
	return ablation{
		grids: []grid{
			gapGrid("stall", config.Starting()),
			gapGrid("wrong-path", config.Starting().WithWrongPath()),
		},
		render: func(figs []*FigureResult) string {
			return gapTable("Ablation: misprediction model (stall vs wrong-path execution)", "model", figs)
		},
	}
}

// SchemeComparison compares the three redundancy organisations on the
// starting configuration: none (baseline), duplicate-at-the-scheduler
// (Franklin [24], the paper's cited comparison — copies inherit the
// original's dependencies), and REESE's R-stream Queue (copies carry
// operands, dependency-free). This quantifies §4.4's argument for the
// RSQ.
func SchemeComparison(opt Options) (string, map[string]float64, error) {
	a, out := schemeComparison()
	tbl, err := runAblations(opt, a)
	return tbl, out, err
}

func schemeComparison() (ablation, map[string]float64) {
	out := make(map[string]float64, 3)
	keys := []string{"baseline", "dup-dispatch", "reese"}
	g := grid{variants: []variant{
		{"baseline (no redundancy)", config.Starting()},
		{"duplicate-at-scheduler [24]", config.Starting().WithDupDispatch()},
		{"REESE (R-stream Queue)", config.Starting().WithReese()},
	}}
	return ablation{grids: []grid{g}, render: func(figs []*FigureResult) string {
		t := stats.NewTable("Redundancy schemes on the starting configuration (average IPC)",
			"scheme", "avg IPC", "gap vs baseline %")
		base := figs[0].Average(g.variants[0].label)
		for i, v := range g.variants {
			avg := figs[0].Average(v.label)
			out[keys[i]] = avg
			gap := "-"
			if i > 0 {
				gap = fmt.Sprintf("%.1f", stats.PercentDelta(base, avg))
			}
			t.AddRow(v.label, fmt.Sprintf("%.3f", avg), gap)
		}
		return t.String()
	}}, out
}

// PermanentFaultCoverage compares how the redundancy schemes handle a
// permanent stuck bit in integer ALU 0, on a machine with a single ALU
// (the worst case: every computation, primary and redundant, uses the
// faulty unit). Plain duplication and plain REESE are blind to the
// common-mode corruption; REESE+RESO (recomputation with shifted
// operands, reference [15]) detects it and stops the machine, as §4.3
// prescribes for persistent errors.
func PermanentFaultCoverage(opt Options) (string, error) {
	return runAblations(opt, permanentFaultCoverage())
}

func permanentFaultCoverage() ablation {
	single := config.Starting()
	single.FU.IntALU = 1
	single.Width = 2
	single.IssueWidth = 2
	stuck := fault.StuckUnit{Kind: uint8(fu.IntALU), Unit: 0, Bit: 5}
	schemes := []variant{
		{"baseline", single},
		{"duplicate-at-scheduler [24]", single.WithDupDispatch()},
		{"REESE", single.WithReese()},
		{"REESE + RESO [15]", single.WithReese().WithRESO()},
	}
	results := make([]pipeline.Result, len(schemes))
	var runs []func(Options) error
	for i, s := range schemes {
		runs = append(runs, func(opt Options) error {
			cpu, err := newCPU(s.cfg, "gcc", 1, stuck, opt)
			if err != nil {
				return err
			}
			results[i], err = cpu.RunContext(opt.Ctx, opt.Insts)
			return err
		})
	}
	return ablation{runs: runs, render: func([]*FigureResult) string {
		t := stats.NewTable("Permanent fault in the only integer ALU (stuck bit 5)",
			"scheme", "detected", "machine stopped", "outcome")
		for i, s := range schemes {
			res := results[i]
			outcome := "silent corruption"
			if res.PermError {
				outcome = "reported to the user (§4.3)"
			} else if res.FaultsDetected > 0 {
				outcome = "detected, recovered repeatedly"
			}
			t.AddRow(s.label, fmt.Sprint(res.FaultsDetected), fmt.Sprint(res.PermError), outcome)
		}
		return t.String()
	}}
}
