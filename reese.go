// Package reese is a cycle-level reproduction of "REESE: A Method of
// Soft Error Detection in Microprocessors" (Nickel & Somani, DSN 2001).
//
// It bundles a SimpleScalar-style out-of-order superscalar timing
// simulator for the SS32 ISA (fetch with gshare branch prediction,
// register update unit, load/store queue, configurable functional
// units and cache hierarchy) with the paper's contribution: REESE,
// time-redundant execution through an R-stream Queue with a result
// comparator before commit, plus "spare elements" — extra functional
// units that absorb the redundant stream's demand.
//
// This package is the public facade. Typical use:
//
//	cfg := reese.StartingConfig().WithReese().WithSpares(2, 0)
//	prog, _ := reese.Workload("gcc", 0)
//	res, _ := reese.Run(cfg, prog, nil, 200_000)
//	fmt.Printf("IPC %.3f, %d faults detected\n", res.IPC, res.FaultsDetected)
//
// The subsystems live in internal packages; everything a user needs is
// re-exported here. The experiment harness that regenerates the paper's
// tables and figures is exposed through the Figure*, Campaign and
// ablation functions.
package reese

import (
	"fmt"

	"reese/internal/asm"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/harness"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

// Config is a complete machine configuration. Build one from
// StartingConfig and the With* methods.
type Config = config.Machine

// Result is the outcome of a timing simulation.
type Result = pipeline.Result

// Program is a loadable SS32 executable image.
type Program = program.Program

// Injector decides which instructions suffer injected soft errors.
// Implementations in this package: NoFaults, FaultAt, PeriodicFaults,
// RandomFaults.
type Injector = fault.Injector

// CPU is a single-use simulated processor instance, for callers that
// want to step or inspect a simulation; most users call Run.
type CPU = pipeline.CPU

// StartingConfig returns the paper's Table 1 starting configuration
// with REESE disabled (the baseline machine).
func StartingConfig() Config { return config.Starting() }

// Workload builds one of the paper's six Table 2 benchmarks (gcc, go,
// ijpeg, li, perl, vortex). iters scales the outer loop; 0 picks a
// default sized for a few hundred thousand instructions.
func Workload(name string, iters int) (*Program, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("reese: unknown workload %q (have %v)", name, workload.Names())
	}
	return spec.Build(iters)
}

// WorkloadNames returns the six benchmark names in the paper's order.
// Beyond these, Workload also accepts the extras: "compress" and
// "m88ksim" (the two SPEC95int programs the paper omits) and "fpmix"
// (a floating-point kernel for the FP datapaths).
func WorkloadNames() []string { return workload.Names() }

// Assemble translates SS32 assembly into a runnable program. See
// internal/asm for the syntax; examples/customworkload shows typical
// source.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// New builds a simulated CPU. injector may be nil for fault-free runs.
func New(cfg Config, prog *Program, injector Injector) (*CPU, error) {
	return pipeline.New(cfg, prog, injector)
}

// Run simulates prog on cfg until halt or maxInsts committed
// instructions (0 = no limit). injector may be nil.
func Run(cfg Config, prog *Program, injector Injector, maxInsts uint64) (Result, error) {
	cpu, err := pipeline.New(cfg, prog, injector)
	if err != nil {
		return Result{}, err
	}
	return cpu.Run(maxInsts)
}

// Emulate runs prog on the functional emulator (no timing), returning
// the machine for architectural inspection.
func Emulate(prog *Program, maxInsts uint64) (*emu.Machine, error) {
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(maxInsts); err != nil {
		return nil, err
	}
	return m, nil
}

// NoFaults returns an injector that never fires.
func NoFaults() Injector { return fault.None{} }

// FaultAt returns an injector that flips the given bit of the result of
// the n-th committed instruction, once.
func FaultAt(n uint64, bit uint8) Injector { return &fault.AtSeq{Seq: n, Bit: bit} }

// PeriodicFaults returns an injector that fires every interval
// instructions, cycling bit positions.
func PeriodicFaults(interval uint64) Injector { return &fault.Periodic{Interval: interval} }

// RandomFaults returns a deterministic pseudo-random injector firing
// with probability num/2^32 per instruction.
func RandomFaults(num uint32, seed uint64) Injector { return fault.NewRandom(num, seed) }

// Experiment harness re-exports: each regenerates one of the paper's
// tables or figures. See EXPERIMENTS.md for paper-vs-measured results.

// Options control experiment scale (instruction budget per run).
type Options = harness.Options

// FigureResult is a regenerated bar-group figure.
type FigureResult = harness.FigureResult

// DefaultOptions is the scale used by the test suite and benches.
func DefaultOptions() Options { return harness.DefaultOptions() }

// Figure2 regenerates Figure 2 (starting configuration).
func Figure2(opt Options) (*FigureResult, error) { return harness.Figure2(opt) }

// Figure3 regenerates Figure 3 (RUU 32 / LSQ 16).
func Figure3(opt Options) (*FigureResult, error) { return harness.Figure3(opt) }

// Figure4 regenerates Figure 4 (16-wide datapath).
func Figure4(opt Options) (*FigureResult, error) { return harness.Figure4(opt) }

// Figure5 regenerates Figure 5 (4 memory ports).
func Figure5(opt Options) (*FigureResult, error) { return harness.Figure5(opt) }

// Figure6 regenerates Figure 6 (summary across configurations).
func Figure6(opt Options) ([]harness.SummaryRow, error) { return harness.Figure6(opt) }

// Figure7 regenerates Figure 7 (RUU 64/256 with and without doubled
// functional units).
func Figure7(opt Options) ([]harness.Figure7Point, error) { return harness.Figure7(opt) }

// Table1 renders the paper's Table 1 (starting configuration).
func Table1() string { return harness.Table1() }

// Table2 renders the paper's Table 2 (benchmarks and inputs).
func Table2() string { return harness.Table2() }

// CampaignSpec configures a statistical fault-injection campaign; see
// harness.Campaign.
type CampaignSpec = harness.CampaignSpec

// CampaignReport is a campaign's outcome: per-structure coverage with
// Wilson 95% confidence intervals, every injection classified as
// detected, recovered, SDC, masked, or hang against a golden run.
type CampaignReport = harness.CampaignReport

// Campaign runs a seeded statistical fault-injection campaign on one
// workload: faults sampled over (instruction, structure, bit), each
// injected run classified against an uninjected golden execution.
func Campaign(spec CampaignSpec, opt Options) (*CampaignReport, error) {
	return harness.Campaign(spec, opt)
}

// FaultStructures returns the fault-target structures that exist on a
// machine (RSQ structures only when it has an R-stream Queue).
func FaultStructures(rsq bool) []fault.Struct { return fault.Structures(rsq) }

// SpareSearch finds the number of spare integer ALUs needed to bring the
// REESE machine within tolerance of the baseline — the paper's central
// question (§1.1).
func SpareSearch(base Config, maxSpares int, tolerance float64, opt Options) (int, []float64, error) {
	return harness.SpareSearch(base, maxSpares, tolerance, opt)
}

// CheckClaims evaluates the paper's §6.1/§7 headline claims against
// fresh simulations, returning one pass/fail entry per claim.
func CheckClaims(opt Options) ([]harness.Claim, error) { return harness.CheckClaims(opt) }

// BitGrid injects one fault per bit position (0-31) at a fixed point in
// a workload and reports per-position detection — the comparator's
// single-bit completeness demonstrated on pipeline timing.
func BitGrid(cfg Config, workloadName string, atSeq uint64, opt Options) ([]harness.BitGridResult, error) {
	return harness.BitGrid(cfg, workloadName, atSeq, opt)
}

// StuckUnit is a permanent single-bit fault in one functional unit;
// install it by passing it as the injector to New or Run. Plain
// re-execution misses it when both executions use the faulty unit; a
// Config built with WithRESO detects it (see examples and
// EXPERIMENTS.md).
type StuckUnit = fault.StuckUnit

// StuckALU returns a permanent fault in integer ALU unit (bit flipped
// in every result it computes).
func StuckALU(unit int, bit uint8) StuckUnit {
	return StuckUnit{Kind: uint8(fu.IntALU), Unit: unit, Bit: bit}
}

// StuckMemPort returns a permanent fault in a memory port.
func StuckMemPort(unit int, bit uint8) StuckUnit {
	return StuckUnit{Kind: uint8(fu.MemPort), Unit: unit, Bit: bit}
}
