// Command reese-faults runs statistical fault-injection campaigns:
// seeded random samples over (victim instruction, target structure, bit
// position), each injected run classified against an uninjected golden
// execution as detected, recovered, SDC, masked, or hang — with
// per-structure coverage and Wilson 95% confidence intervals.
//
// Usage:
//
//	reese-faults                         # all six workloads, REESE vs baseline
//	reese-faults -workload li -n 1000    # one workload, 1000 injections
//	reese-faults -structures result,fetch-pc
//	reese-faults -jsonl trials.jsonl     # stream per-trial records
//	reese-faults -smoke                  # tiny seeded campaign with assertions
//	reese-faults -grid                   # sweep all 32 bit positions at one point
//	reese-faults -workload gcc -n 10000 -workers http://a:8321,http://b:8321
//	                                     # shard the campaign across replicas
//	reese-faults -cpuprofile cpu.pprof   # write a CPU profile of the campaigns
//	reese-faults -memprofile mem.pprof   # write a heap profile at exit
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"reese/internal/cluster"
	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/mem"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "single workload (default: all six)")
		injections   = flag.Int("n", 400, "injections per campaign")
		seed         = flag.Uint64("seed", 1, "campaign seed (same seed = byte-identical results)")
		structures   = flag.String("structures", "", "comma-separated fault structures (default: all for the machine)")
		targetInsts  = flag.Uint64("target-insts", 0, "approximate golden-run length in instructions (0 = default)")
		jsonOut      = flag.Bool("json", false, "emit campaign reports as JSON instead of tables")
		jsonlPath    = flag.String("jsonl", "", "stream per-trial JSONL records to this file (\"-\" = stdout)")
		ckInterval   = flag.Uint64("checkpoint-interval", 0, "golden-run snapshot spacing in committed instructions (0 = default)")
		parallel     = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		smoke        = flag.Bool("smoke", false, "tiny seeded campaign; exits non-zero unless in-sphere coverage is 100% with no hangs")
		memSmoke     = flag.Bool("mem-smoke", false, "seeded memory-hierarchy campaign on small caches with SECDED L2; asserts ECC absorbs single-bit L2 faults and localization accuracy >= 90%")
		ecc          = flag.Bool("ecc", false, "enable SECDED ECC on the L2 cache for the campaign machines")
		grid         = flag.Bool("grid", false, "sweep all 32 bit positions at one injection point")
		gridAt       = flag.Uint64("grid-at", 5_000, "injection point (instruction #) for -grid")
		workersStr   = flag.String("workers", "", "comma-separated reese-serve replica URLs; shards each campaign across them")
		shardSize    = flag.Int("shard-size", 0, "trials per shard with -workers (0 = auto)")
		triage       = flag.Bool("triage", false, "re-run every SDC/hang trial from its checkpoint with the flight recorder and first-divergence attribution armed (requires -workload)")
		triageDet    = flag.Bool("triage-detected", false, "with -triage, also triage detected outcomes")
		triageDir    = flag.String("triage-dir", "", "with -triage, write each triaged trial's Perfetto trace here (trace_path lands in the JSONL record)")
		triageSmoke  = flag.Bool("triage-smoke", false, "seeded triage campaign with assertions; exits non-zero unless every escape carries a trace with injection and first-divergence markers")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	opt := harness.Options{Parallel: *parallel}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-faults:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "reese-faults:", err)
			return 1
		}
		// run() (not main) owns the deferred stop, so os.Exit cannot
		// truncate the profile.
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-faults:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reese-faults:", err)
			}
		}()
	}

	structs, err := parseStructures(*structures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 2
	}

	if *grid {
		return runGrid(*workloadName, *gridAt, opt)
	}
	if *smoke {
		return runSmoke(*seed, opt)
	}
	if *memSmoke {
		return runMemSmoke(*seed, opt)
	}
	if *triageSmoke {
		return runTriageSmoke(*seed, opt)
	}
	if *triage && *workloadName == "" {
		fmt.Fprintln(os.Stderr, "reese-faults: -triage requires -workload (triage artifacts attach to one campaign's trial log)")
		return 2
	}

	// Trials stream to the sink as they complete rather than being
	// buffered until every campaign finishes: a killed or wedged run
	// keeps everything already classified.
	var sink *json.Encoder
	if *jsonlPath != "" {
		w := os.Stdout
		if *jsonlPath != "-" {
			f, err := os.Create(*jsonlPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-faults:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		sink = json.NewEncoder(w)
	}
	// emit hands one finished trial to the front end's consumers. Its
	// trace is persisted (and trace_path stamped) before the record is
	// encoded, so the JSONL line already points at its artifact.
	emit := func(machine string, t *harness.Trial) error {
		if t.Triage != nil && *triageDir != "" && len(t.Triage.Trace) > 0 {
			path, err := writeTrace(*triageDir, machine, t.Index, t.Triage.Trace)
			if err != nil {
				return err
			}
			t.Triage.TracePath = path
		}
		if sink != nil {
			if err := sink.Encode(t); err != nil {
				return err
			}
		}
		if t.Triage != nil {
			// Every consumer of the blob in this front end has run; drop
			// it so hundreds of escapes' traces don't sit on the heap for
			// the rest of the run. The attribution fields stay on the
			// record for the summary table.
			t.Triage.Trace = nil
		}
		return nil
	}

	// One campaign of the comparison runs either here or sharded across
	// the -workers replicas by the cluster coordinator, which merges the
	// shards into the byte-identical single-process report.
	workers := splitWorkers(*workersStr)
	clusterCfg := cluster.Config{Workers: workers, OnEvent: func(ev cluster.Event) {
		if ev.Type == "completed" || ev.Type == "reassigned" {
			fmt.Fprintf(os.Stderr, "reese-faults: shard %d %s on %s (%d/%d shards, %d/%d trials, %.1fs)\n",
				ev.Shard, ev.Type, ev.Worker, ev.CompletedShards, ev.TotalShards,
				ev.CompletedTrials, ev.TotalTrials, ev.ElapsedS)
		}
	}}
	run := func(spec harness.CampaignSpec) (rep *harness.CampaignReport, err error) {
		machine := spec.Machine.Name
		if len(workers) == 0 {
			if sink != nil || spec.Triage {
				spec.TrialSink = func(t harness.Trial) error { return emit(machine, &t) }
			}
			if rep, err = harness.Campaign(spec, opt); err != nil {
				return nil, err
			}
		} else {
			c := cluster.Campaign{
				Workload:           spec.Workload,
				Machine:            &spec.Machine,
				Injections:         spec.Injections,
				Seed:               spec.Seed,
				TargetInsts:        spec.TargetInsts,
				CheckpointInterval: spec.CheckpointInterval,
				ShardSize:          *shardSize,
				Triage:             spec.Triage,
				TriageDetected:     spec.TriageDetected,
			}
			for _, st := range spec.Structures {
				c.Structures = append(c.Structures, st.String())
			}
			if rep, err = cluster.Run(context.Background(), clusterCfg, c); err != nil {
				return nil, err
			}
			for i := range rep.Trials {
				if err := emit(machine, &rep.Trials[i]); err != nil {
					return nil, err
				}
			}
		}
		// A triage trace that wrapped its ring evicted early events;
		// say so instead of letting a partial record pass as complete.
		for _, t := range rep.Trials {
			if t.Triage != nil && t.Triage.TraceDropped > 0 {
				fmt.Fprintf(os.Stderr, "reese-faults: warning: trial %d triage trace wrapped (%d events evicted); the trace is a partial record\n",
					t.Index, t.Triage.TraceDropped)
			}
		}
		return rep, nil
	}

	base := harness.CampaignSpec{
		Workload:           *workloadName,
		Machine:            config.Starting(),
		Structures:         structs,
		Injections:         *injections,
		Seed:               *seed,
		TargetInsts:        *targetInsts,
		CheckpointInterval: *ckInterval,
		Triage:             *triage,
		TriageDetected:     *triageDet,
	}
	base.Machine.Memory.L2.ECC = *ecc
	tbl, reports, err := harness.CampaignAll(base, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	if *jsonOut {
		return emitJSON(reports)
	}
	if *workloadName == "" {
		fmt.Println(tbl)
		return 0
	}
	for i := range reports {
		r := &reports[i]
		fmt.Println(r.Table())
		if len(workers) > 0 {
			fmt.Printf("throughput: %d injections in %.2fs wall across %d workers (%.0f injections/s)\n\n",
				r.Injected, r.WallSeconds, len(workers), r.InjectionsPerSec)
			continue
		}
		if r.Localized > 0 {
			fmt.Println(r.LevelsTable())
		}
		if r.Detected+r.Recovered > 0 {
			fmt.Printf("detection latency: mean %.1f, p95 %d, max %d cycles\n",
				r.DetectionLatencyMean, r.DetectionLatencyP95, r.DetectionLatencyMax)
		}
		if r.Triaged > 0 {
			fmt.Printf("triage: %d escapes replayed with attribution, %d with a first divergent commit\n",
				r.Triaged, r.Diverged)
		}
		fmt.Printf("throughput: %d injections in %.2fs wall (%.0f injections/s)\n\n",
			r.Injected, r.WallSeconds, r.InjectionsPerSec)
	}
	return 0
}

// splitWorkers turns "http://a,http://b" into clean base URLs.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, strings.TrimRight(w, "/"))
		}
	}
	return out
}

// writeTrace persists one triaged trial's Perfetto trace under dir,
// creating it if needed. The name carries the machine and the trial's
// global plan index, so the REESE and baseline halves of a comparison
// never collide.
func writeTrace(dir, machine string, index int, trace []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ':
			return '-'
		}
		return r
	}, machine)
	path := filepath.Join(dir, fmt.Sprintf("%s-trial-%04d.trace.json", name, index))
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// parseStructures turns "result,fetch-pc" into fault structures.
func parseStructures(s string) ([]fault.Struct, error) {
	if s == "" {
		return nil, nil
	}
	var out []fault.Struct
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		st, ok := fault.ParseStruct(name)
		if !ok {
			var have []string
			for _, k := range fault.Structures(true) {
				have = append(have, k.String())
			}
			return nil, fmt.Errorf("unknown structure %q (have %s)", name, strings.Join(have, ", "))
		}
		out = append(out, st)
	}
	return out, nil
}

func emitJSON(reports []harness.CampaignReport) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	return 0
}

// gate collects a smoke run's assertion failures.
type gate struct{ failed bool }

// fail reports one failed assertion.
func (g *gate) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	g.failed = true
}

// runSmoke is the CI gate: a small seeded campaign on the REESE machine
// asserting the invariants the fault model promises — every injection
// classified (counts sum to injected), 100% coverage for result-target
// faults, and no in-sphere fault able to hang the machine.
func runSmoke(seed uint64, opt harness.Options) int {
	rep, err := harness.Campaign(harness.CampaignSpec{
		Workload:   "li",
		Machine:    config.Starting().WithReese(),
		Injections: 120,
		Seed:       seed,
	}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	var g gate
	if got := rep.Total(); got != rep.Injected {
		g.fail("outcome counts sum to %d, want %d injected", got, rep.Injected)
	}
	for _, s := range rep.Structures {
		if s.Structure == fault.StructResult.String() && s.Coverage < 1 {
			g.fail("result-structure coverage %.1f%%, want 100%%", s.Coverage*100)
		}
		if s.InSphere && s.SDC > 0 {
			g.fail("in-sphere structure %s let %d faults through as SDC", s.Structure, s.SDC)
		}
		if s.InSphere && s.Hang > 0 {
			g.fail("in-sphere structure %s hung %d runs", s.Structure, s.Hang)
		}
	}
	if g.failed {
		return 3
	}
	fmt.Println("smoke OK: all injections classified, result coverage 100%, no in-sphere SDC or hangs")
	return 0
}

// runTriageSmoke is the triage CI gate: a seeded campaign over
// structures known to produce out-of-sphere escapes (regfile, fetch-pc,
// mem-word faults the comparator cannot see), with -triage semantics
// hard-enabled. It asserts the triage contract end to end: every
// SDC/hang trial carries a triage record whose replay reproduced the
// original exactly, with a Perfetto trace containing the injection
// marker, and — for SDCs — a first divergent commit no earlier than the
// victim instruction.
func runTriageSmoke(seed uint64, opt harness.Options) int {
	rep, err := harness.Campaign(harness.CampaignSpec{
		Workload: "li",
		Machine:  config.Starting().WithReese(),
		Structures: []fault.Struct{
			fault.StructResult, fault.StructRegFile, fault.StructFetchPC, fault.StructMemWord,
		},
		Injections: 150,
		Seed:       seed,
		Triage:     true,
	}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	var g gate
	escapes := 0
	for i := range rep.Trials {
		t := &rep.Trials[i]
		if t.Outcome != "sdc" && t.Outcome != "hang" {
			continue
		}
		escapes++
		tg := t.Triage
		if tg == nil {
			g.fail("trial %d (%s, %s) escaped without a triage record", t.Index, t.Structure, t.Outcome)
			continue
		}
		if !tg.ReplayOK {
			g.fail("trial %d triage replay did not reproduce the original run", t.Index)
		}
		if len(tg.Trace) == 0 {
			g.fail("trial %d triage record has no trace artifact", t.Index)
		} else if !bytes.Contains(tg.Trace, []byte(`"FAULT`)) {
			g.fail("trial %d trace has no injection marker", t.Index)
		}
		if t.Outcome == "sdc" && tg.FirstDivergence == nil {
			g.fail("trial %d is an SDC with no first-divergence attribution", t.Index)
		}
		if d := tg.FirstDivergence; d != nil && d.Seq < t.Seq {
			g.fail("trial %d first divergence at seq %d precedes the victim seq %d", t.Index, d.Seq, t.Seq)
		}
		if t.Outcome == "hang" && tg.HangPeriod == 0 {
			g.fail("trial %d is a hang with no detected loop period", t.Index)
		}
	}
	if escapes == 0 {
		g.fail("campaign produced no escapes; the triage gate exercised nothing")
	}
	if rep.Triaged == 0 || rep.Diverged == 0 {
		g.fail("report triage totals empty (triaged %d, diverged %d)", rep.Triaged, rep.Diverged)
	}
	if g.failed {
		return 3
	}
	fmt.Printf("triage-smoke OK: %d escapes triaged (%d diverged), every trace carries injection and divergence markers\n",
		rep.Triaged, rep.Diverged)
	return 0
}

// memSmokeMachine is the -mem-smoke configuration: the REESE machine
// with caches shrunk (2 KB L1s, 16 KB SECDED L2) so the PRBS workload's
// resident region spills past L1 and exercises L2 and RAM.
func memSmokeMachine() config.Machine {
	cfg := config.Starting().WithReese()
	cfg.Name = cfg.Name + "+memsmoke"
	cfg.Memory.L1D = mem.CacheConfig{Name: "dl1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L1I = mem.CacheConfig{Name: "il1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L2 = mem.CacheConfig{Name: "ul2", SizeBytes: 16 * 1024, BlockBytes: 64, Assoc: 4, HitLatency: 12, ECC: true}
	return cfg
}

// runMemSmoke is the memory-hierarchy CI gate: a seeded 200-injection
// campaign on the PRBS self-checking workload over memory and pipeline
// structures, asserting (a) the SECDED L2 turns every effective
// single-bit L2 fault into a correction (zero SDC), (b) the six-way
// outcome taxonomy accounts for every injection, and (c) symptom-based
// localization attributes at least 90% of non-masked trials to the
// right plane.
func runMemSmoke(seed uint64, opt harness.Options) int {
	structs := []fault.Struct{
		fault.StructResult, fault.StructRSQOperand, fault.StructFetchPC, fault.StructRegFile,
		fault.StructMemWord, fault.StructL1DDirty, fault.StructL1DTag,
		fault.StructL2Line, fault.StructDTLB,
	}
	rep, err := harness.Campaign(harness.CampaignSpec{
		Workload:    "prbs",
		Machine:     memSmokeMachine(),
		Structures:  structs,
		Injections:  200,
		Seed:        seed,
		TargetInsts: 70_000,
	}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	fmt.Println(rep.LevelsTable())
	var g gate
	if got := rep.Total(); got != rep.Injected {
		g.fail("outcome counts sum to %d, want %d injected", got, rep.Injected)
	}
	// Single-bit L2 faults (bit < 32) must never escape a SECDED L2.
	for _, t := range rep.Trials {
		if t.Structure == fault.StructL2Line.String() && t.Bit < 32 && t.Outcome == "sdc" {
			g.fail("single-bit L2 fault (trial %d, bit %d) escaped ECC as SDC", t.Index, t.Bit)
		}
	}
	if rep.Localized == 0 {
		g.fail("no trials were localized")
	} else if rep.LocAccuracy < 0.90 {
		g.fail("localization accuracy %.1f%% over %d trials, want >= 90%%",
			rep.LocAccuracy*100, rep.Localized)
	}
	if g.failed {
		return 3
	}
	fmt.Printf("mem-smoke OK: %d injections classified six ways, ECC absorbed all single-bit L2 faults, localization %.1f%% over %d trials\n",
		rep.Injected, rep.LocAccuracy*100, rep.Localized)
	return 0
}

func runGrid(workloadName string, gridAt uint64, opt harness.Options) int {
	w := workloadName
	if w == "" {
		w = "gcc"
	}
	// Say which workload the grid runs on — an unset -workload used to
	// silently mean gcc.
	fmt.Printf("bit grid: workload %s, injection at instruction %d\n", w, gridAt)
	cells, err := harness.BitGrid(config.Starting().WithReese(), w, gridAt, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(harness.BitGridTable(cells))
	missed, notFired := 0, 0
	for _, c := range cells {
		switch {
		case c.NotFired:
			notFired++
		case !c.Detected:
			missed++
		}
	}
	if notFired > 0 {
		fmt.Fprintf(os.Stderr, "reese-faults: %d/32 injections never fired (is -grid-at %d beyond the program's end?)\n", notFired, gridAt)
		return 3
	}
	fmt.Printf("%d/32 bit positions detected\n", 32-missed)
	if missed > 0 {
		return 3
	}
	return 0
}
