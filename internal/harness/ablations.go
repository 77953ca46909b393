package harness

import (
	"fmt"
	"slices"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/pipeline"
	"reese/internal/stats"
	"reese/internal/workload"
)

// PredictorSweep compares branch predictors on both machines — a
// sensitivity check the paper doesn't run (it fixes gshare) but whose
// outcome it depends on: REESE inherits the baseline's control-flow
// behaviour because R-stream instructions carry resolved outcomes, so
// the gap should be roughly predictor independent.
func PredictorSweep(opt Options) (string, map[config.PredictorKind]float64, error) {
	opt = opt.normalize()
	kinds := []config.PredictorKind{
		config.PredGshare,
		config.PredCombining,
		config.PredBimodal,
		config.PredStaticTaken,
		config.PredStaticNotTaken,
	}
	gaps := make(map[config.PredictorKind]float64, len(kinds))
	t := stats.NewTable("Ablation: branch predictor sensitivity (average over 6 benchmarks)",
		"predictor", "baseline IPC", "REESE IPC", "gap %")
	for _, k := range kinds {
		base := config.Starting().WithPredictor(k)
		b, err := averageIPC(base, opt)
		if err != nil {
			return "", nil, err
		}
		r, err := averageIPC(base.WithReese(), opt)
		if err != nil {
			return "", nil, err
		}
		gap := stats.PercentDelta(b, r)
		gaps[k] = gap
		t.AddRow(k.String(), fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", r), fmt.Sprintf("%.1f", gap))
	}
	return t.String(), gaps, nil
}

// HighWaterSweep varies the RSQ occupancy threshold at which R-stream
// instructions take scheduling priority (the paper's counter logic,
// §4.3). Too low starves the P stream; too high risks full-queue stalls.
func HighWaterSweep(marks []int, opt Options) (string, map[int]float64, error) {
	opt = opt.normalize()
	out := make(map[int]float64, len(marks))
	t := stats.NewTable("Ablation: R-priority high-water mark (RSQ=32, starting config)",
		"high water", "avg IPC", "gap vs baseline %", "priority cycles (gcc)")
	baseAvg, err := averageIPC(config.Starting(), opt)
	if err != nil {
		return "", nil, err
	}
	for _, hw := range marks {
		cfg := config.Starting().WithReese().WithRSQHighWater(hw)
		res, err := workloadResults(cfg, opt)
		if err != nil {
			return "", nil, err
		}
		avg := meanIPC(res)
		out[hw] = avg
		gcc := res[slices.Index(workload.Names(), "gcc")]
		t.AddRow(fmt.Sprint(hw), fmt.Sprintf("%.3f", avg),
			fmt.Sprintf("%.1f", stats.PercentDelta(baseAvg, avg)),
			fmt.Sprint(gcc.Reese.PriorityCycles))
	}
	return t.String(), out, nil
}

// DetectionLatencyVsRSQ measures how the RSQ size stretches the
// P-to-R-execution separation — the Δt of the paper's §2 argument: a
// longer separation tolerates longer-lived transients, at the cost of
// delaying every commit.
func DetectionLatencyVsRSQ(sizes []int, opt Options) (string, map[int]float64, error) {
	opt = opt.normalize()
	out := make(map[int]float64, len(sizes))
	t := stats.NewTable("Ablation: detection latency vs R-stream Queue size (gcc, faults every 5k insts)",
		"rsq size", "mean detect cycles", "p95", "max", "IPC")
	for _, size := range sizes {
		cfg := config.Starting().WithReese().WithRSQ(size)
		spec, _ := workload.ByName("gcc")
		prog, err := spec.Build(spec.DefaultIters * 2)
		if err != nil {
			return "", nil, err
		}
		inj := &fault.Periodic{Interval: 5_000, Start: 2_500}
		cpu, err := pipeline.New(cfg, prog, inj)
		if err != nil {
			return "", nil, err
		}
		res, err := cpu.Run(opt.Insts)
		if err != nil {
			return "", nil, err
		}
		h := cpu.DetectionLatencies()
		out[size] = res.DetectionLatencyMean
		t.AddRow(fmt.Sprint(size),
			fmt.Sprintf("%.1f", res.DetectionLatencyMean),
			fmt.Sprint(h.Percentile(95)),
			fmt.Sprint(res.DetectionLatencyMax),
			fmt.Sprintf("%.3f", res.IPC))
	}
	return t.String(), out, nil
}

// WrongPathSweep compares the default stall-until-resolve misprediction
// model against full wrong-path execution modelling, for both machines.
// The REESE-vs-baseline gap should be robust to the choice — wrong-path
// work steals resources from both streams alike.
func WrongPathSweep(opt Options) (string, error) {
	opt = opt.normalize()
	t := stats.NewTable("Ablation: misprediction model (stall vs wrong-path execution)",
		"model", "baseline IPC", "REESE IPC", "gap %")
	for _, tt := range []struct {
		label string
		base  config.Machine
	}{
		{"stall", config.Starting()},
		{"wrong-path", config.Starting().WithWrongPath()},
	} {
		b, err := averageIPC(tt.base, opt)
		if err != nil {
			return "", err
		}
		r, err := averageIPC(tt.base.WithReese(), opt)
		if err != nil {
			return "", err
		}
		t.AddRow(tt.label, fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", r),
			fmt.Sprintf("%.1f", stats.PercentDelta(b, r)))
	}
	return t.String(), nil
}

// SchemeComparison compares the three redundancy organisations on the
// starting configuration: none (baseline), duplicate-at-the-scheduler
// (Franklin [24], the paper's cited comparison — copies inherit the
// original's dependencies), and REESE's R-stream Queue (copies carry
// operands, dependency-free). This quantifies §4.4's argument for the
// RSQ.
func SchemeComparison(opt Options) (string, map[string]float64, error) {
	opt = opt.normalize()
	out := make(map[string]float64, 3)
	t := stats.NewTable("Redundancy schemes on the starting configuration (average IPC)",
		"scheme", "avg IPC", "gap vs baseline %")
	base, err := averageIPC(config.Starting(), opt)
	if err != nil {
		return "", nil, err
	}
	out["baseline"] = base
	t.AddRow("baseline (no redundancy)", fmt.Sprintf("%.3f", base), "-")
	dup, err := averageIPC(config.Starting().WithDupDispatch(), opt)
	if err != nil {
		return "", nil, err
	}
	out["dup-dispatch"] = dup
	t.AddRow("duplicate-at-scheduler [24]", fmt.Sprintf("%.3f", dup),
		fmt.Sprintf("%.1f", stats.PercentDelta(base, dup)))
	rsq, err := averageIPC(config.Starting().WithReese(), opt)
	if err != nil {
		return "", nil, err
	}
	out["reese"] = rsq
	t.AddRow("REESE (R-stream Queue)", fmt.Sprintf("%.3f", rsq),
		fmt.Sprintf("%.1f", stats.PercentDelta(base, rsq)))
	return t.String(), out, nil
}

// PermanentFaultCoverage compares how the redundancy schemes handle a
// permanent stuck bit in integer ALU 0, on a machine with a single ALU
// (the worst case: every computation, primary and redundant, uses the
// faulty unit). Plain duplication and plain REESE are blind to the
// common-mode corruption; REESE+RESO (recomputation with shifted
// operands, reference [15]) detects it and stops the machine, as §4.3
// prescribes for persistent errors.
func PermanentFaultCoverage(opt Options) (string, error) {
	opt = opt.normalize()
	single := config.Starting()
	single.FU.IntALU = 1
	single.Width = 2
	single.IssueWidth = 2
	stuck := fault.StuckUnit{Kind: uint8(fu.IntALU), Unit: 0, Bit: 5}

	t := stats.NewTable("Permanent fault in the only integer ALU (stuck bit 5)",
		"scheme", "detected", "machine stopped", "outcome")
	for _, tt := range []struct {
		label string
		cfg   config.Machine
	}{
		{"baseline", single},
		{"duplicate-at-scheduler [24]", single.WithDupDispatch()},
		{"REESE", single.WithReese()},
		{"REESE + RESO [15]", single.WithReese().WithRESO()},
	} {
		spec, _ := workload.ByName("gcc")
		prog, err := spec.Build(spec.DefaultIters)
		if err != nil {
			return "", err
		}
		cpu, err := pipeline.New(tt.cfg, prog, fault.None{})
		if err != nil {
			return "", err
		}
		cpu.SetStuckUnit(stuck)
		res, err := cpu.Run(opt.Insts)
		if err != nil {
			return "", err
		}
		outcome := "silent corruption"
		if res.PermError {
			outcome = "reported to the user (§4.3)"
		} else if res.FaultsDetected > 0 {
			outcome = "detected, recovered repeatedly"
		}
		t.AddRow(tt.label, fmt.Sprint(res.FaultsDetected), fmt.Sprint(res.PermError), outcome)
	}
	return t.String(), nil
}
