package reese

// One benchmark per table and figure of the paper's evaluation, plus
// simulator-throughput and fault-campaign benches. Each figure bench
// regenerates its table/figure once per iteration and reports the
// headline quantities (average IPCs and the REESE gap) as custom
// metrics, so `go test -bench=.` reproduces the paper's numbers
// alongside the timing.
//
// The per-run instruction budget is modest (the paper used 100 M; see
// EXPERIMENTS.md for why ~10^5 suffices for these workloads). Use
// cmd/reese-sweep -insts to regenerate at larger scale.

import (
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/pipeline"
	"reese/internal/workload"
)

// benchOptions is the per-simulation budget for figure benches.
func benchOptions() harness.Options { return harness.Options{Insts: 100_000} }

func BenchmarkTable1StartingConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Building the six programs is the real work behind Table 2;
		// Rebuild bypasses the build cache so assembly cost is measured.
		for _, s := range workload.All() {
			if _, err := s.Rebuild(2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func reportFigure(b *testing.B, fig *harness.FigureResult) {
	b.ReportMetric(fig.Average("Baseline"), "baseIPC")
	b.ReportMetric(fig.Average("REESE"), "reeseIPC")
	b.ReportMetric(fig.GapPercent("Baseline", "REESE"), "gap%")
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		// Report the summary's headline: the mean gap across the four
		// configurations, with and without spares (the paper's
		// "14.0% -> 8.0%" sentence).
		var gap, gapSpared float64
		for _, r := range rows {
			gap += r.GapPercent
			gapSpared += r.SparedGapPct
		}
		b.ReportMetric(gap/float64(len(rows)), "gap%")
		b.ReportMetric(gapSpared/float64(len(rows)), "gap%+2ALU")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := harness.Figure7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			switch p.Label {
			case "RUU=256":
				b.ReportMetric(p.GapPercent, "gap%ruu256")
			case "RUU=256+FUs":
				b.ReportMetric(p.GapPercent, "gap%ruu256+FUs")
			}
		}
	}
}

func BenchmarkFaultCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.Campaign(harness.CampaignSpec{
			Workload:   "gcc",
			Machine:    config.Starting().WithReese(),
			Injections: 40,
			Seed:       1,
		}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Coverage*100, "coverage%")
		b.ReportMetric(r.DetectionLatencyMean, "detect-cycles")
	}
}

func BenchmarkAblationRSQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.RSQSweep([]int{8, 32}, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPartialReexec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.PartialReexecSweep([]int{1, 2}, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// Simulator-throughput benches: simulated instructions per wall-clock
// second for one workload on each machine. These size the tool, not the
// paper.

func benchSimulator(b *testing.B, cfg config.Machine, workloadName string) {
	b.Helper()
	spec, ok := workload.ByName(workloadName)
	if !ok {
		b.Fatal("workload")
	}
	const insts = 100_000
	b.SetBytes(0)
	var totalInsts, totalCycles uint64
	for i := 0; i < b.N; i++ {
		cpu, err := pipeline.New(cfg, spec.MustBuild(spec.DefaultIters*2), fault.None{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := cpu.Run(insts)
		if err != nil {
			b.Fatal(err)
		}
		totalInsts += res.Committed
		totalCycles += res.Cycles
	}
	b.ReportMetric(float64(totalInsts)/b.Elapsed().Seconds(), "sim-insts/s")
	b.ReportMetric(float64(totalCycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimThroughput is the hot-path benchmark: committed
// instructions per wall-clock second and allocations per run for one
// 100k-instruction simulation. It is for profiling, not gating: the
// allocation budget is TestCycleLoopAllocationFree, and speed is gated
// by `make bench-ab`, whose reese-bench figures workload stands in for
// this benchmark.
func BenchmarkSimThroughput(b *testing.B) {
	for _, bm := range []struct {
		name string
		cfg  config.Machine
	}{
		{"baseline", config.Starting()},
		{"reese", config.Starting().WithReese()},
	} {
		b.Run(bm.name, func(b *testing.B) {
			spec, ok := workload.ByName("gcc")
			if !ok {
				b.Fatal("workload gcc missing")
			}
			prog := spec.MustBuild(spec.DefaultIters * 2)
			const insts = 100_000
			b.ReportAllocs()
			b.ResetTimer()
			var totalInsts uint64
			for i := 0; i < b.N; i++ {
				cpu, err := pipeline.New(bm.cfg, prog, fault.None{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cpu.Run(insts)
				if err != nil {
					b.Fatal(err)
				}
				totalInsts += res.Committed
			}
			b.ReportMetric(float64(totalInsts)/b.Elapsed().Seconds(), "sim-insts/s")
			b.ReportMetric(float64(totalInsts)/float64(b.N), "insts/op")
		})
	}
}

// BenchmarkCampaignThroughput measures fault-injection trials per
// wall-clock second through the checkpoint/fork replay engine (golden
// run memoized, so the steady state measured here is pure per-trial
// cost — fork, suffix simulation, splice). Its allocation budget is
// TestCampaignAllocBudget; speed is gated by `make bench-ab`, whose
// reese-bench campaign workload stands in for this benchmark.
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, bm := range []struct {
		name string
		cfg  config.Machine
	}{
		{"baseline", config.Starting()},
		{"reese", config.Starting().WithReese()},
	} {
		b.Run(bm.name, func(b *testing.B) {
			spec := harness.CampaignSpec{
				Workload:   "gcc",
				Machine:    bm.cfg,
				Injections: 200,
				Seed:       7,
			}
			// Warm the golden-run memo so iteration 0 doesn't pay (or
			// allocate) the instrumented golden simulation.
			if _, err := harness.Campaign(spec, harness.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var injected uint64
			for i := 0; i < b.N; i++ {
				rep, err := harness.Campaign(spec, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
				injected += uint64(rep.Injected)
			}
			b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "injections/s")
		})
	}
}

func BenchmarkSimBaselineGcc(b *testing.B) { benchSimulator(b, config.Starting(), "gcc") }

func BenchmarkSimReeseGcc(b *testing.B) { benchSimulator(b, config.Starting().WithReese(), "gcc") }

func BenchmarkSimBaselineVortex(b *testing.B) { benchSimulator(b, config.Starting(), "vortex") }

func BenchmarkSimReeseVortex(b *testing.B) {
	benchSimulator(b, config.Starting().WithReese(), "vortex")
}

func BenchmarkEmulator(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	prog := spec.MustBuild(spec.DefaultIters)
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		m, err := Emulate(prog, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		n += m.InstCount()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "emu-insts/s")
}

func BenchmarkAssembler(b *testing.B) {
	b.ReportAllocs()
	spec, _ := workload.ByName("gcc")
	for i := 0; i < b.N; i++ {
		// Rebuild, not Build: the cache would hide the assembler.
		if _, err := spec.Rebuild(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := harness.SchemeComparison(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res["baseline"], "baseIPC")
		b.ReportMetric(res["dup-dispatch"], "dupIPC")
		b.ReportMetric(res["reese"], "reeseIPC")
	}
}

func BenchmarkSimWrongPathGcc(b *testing.B) {
	benchSimulator(b, config.Starting().WithWrongPath(), "gcc")
}

func BenchmarkSimDupDispatchGcc(b *testing.B) {
	benchSimulator(b, config.Starting().WithDupDispatch(), "gcc")
}

func BenchmarkBitGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, err := harness.BitGrid(config.Starting().WithReese(), "li", 2_000, harness.Options{Insts: 20_000})
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, c := range grid {
			if c.Detected {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "bits-detected")
	}
}
