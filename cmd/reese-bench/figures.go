package main

import (
	"crypto/sha256"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/pipeline"
	"reese/internal/workload"
)

// figuresInsts is the committed-instruction budget per figure cell. The
// paper's sweep cost is what matters here, not its statistics, so the
// budget is small enough for several full sweeps per window.
const figuresInsts = 10_000

// pipelineInsts is the budget of the direct pipeline runs the traced
// run times layer by layer.
const pipelineInsts = 200_000

// figuresBench regenerates every table and figure of the paper with
// harness.AllFigures, over and over. Its time goes to the simulator
// core (pipeline, reese, mem, bpred); no campaign, server or cluster
// code runs.
type figuresBench struct {
	opt  harness.Options
	text string
}

// sweepIters mirrors how the harness sizes a figure cell's program for
// a budget, so set-up builds exactly the programs the sweep uses.
func sweepIters(s workload.Spec, insts uint64) int {
	return s.DefaultIters * (int(insts/150_000) + 2)
}

// setup builds the sweep's programs and runs one sweep at a tenth of
// the budget, so lazy initialisation and heap growth land here rather
// than in the first timed sweep.
func (b *figuresBench) setup(r *run) error {
	b.opt = harness.Options{Insts: uint64(r.scaled(figuresInsts, 2_000))}
	for _, s := range workload.All() {
		if _, err := s.Build(sweepIters(s, b.opt.Insts)); err != nil {
			return err
		}
	}
	end := r.tr.begin("setup", "harness.AllFigures warm-up")
	_, err := harness.AllFigures(harness.Options{Insts: b.opt.Insts / 10})
	end("")
	return err
}

func (b *figuresBench) measure(r *run, until time.Time) {
	opt := b.opt
	var committed atomic.Uint64
	if r.traced() {
		opt.Progress = &committed
	}
	cpu0, start := cpuSeconds(), time.Now()
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		end := r.tr.begin("sweep", "harness.AllFigures")
		t0 := time.Now()
		text, err := harness.AllFigures(opt)
		lat := time.Since(t0)
		if err != nil {
			end("error")
			r.op("sweep", lat, 1, 1)
			r.problem("AllFigures: %v", err)
			continue
		}
		end("")
		r.op("sweep", lat, 1, 0)
		sum := sha256.Sum256([]byte(text))
		r.digest(strconv.Itoa(i), sum[:])
		if b.text == "" {
			b.text = text
		} else if text != b.text {
			r.problem("sweep %d output differs from sweep 0", i)
		}
	}
	if r.traced() {
		r.layer("harness.cpu_util", cpuUtil(cpuSeconds()-cpu0, time.Since(start).Seconds()))
		r.layer("harness.minsts_per_s", float64(committed.Load())/time.Since(start).Seconds()/1e6)
	}
}

// check reruns Figures 2-5 to see the cells behind the visible tables:
// each must have committed at least the budget, and each table must
// appear verbatim in the sweep's output. Every sweep of every part is
// the same computation, so the first part checks for all of them.
func (b *figuresBench) check(r *run) {
	if r.part != 0 {
		return
	}
	for _, f := range []func(harness.Options) (*harness.FigureResult, error){
		harness.Figure2, harness.Figure3, harness.Figure4, harness.Figure5,
	} {
		end := r.tr.begin("check", "harness.Figure")
		fig, err := f(b.opt)
		end("")
		if err != nil {
			r.problem("figure check: %v", err)
			continue
		}
		for _, c := range fig.Cells {
			if c.Result.Committed < b.opt.Insts {
				r.problem("%s %s/%s committed %d < budget %d", fig.ID, c.Workload, c.Variant, c.Result.Committed, b.opt.Insts)
			}
		}
		if b.text != "" && !strings.Contains(b.text, fig.Table()) {
			r.problem("%s table is not in the AllFigures output", fig.ID)
		}
	}
	if r.traced() {
		b.layers(r)
	}
}

// layers times the core layers directly: cold program builds, the
// functional emulator, and sequential pipeline runs on both machines.
func (b *figuresBench) layers(r *run) {
	// Rebuild plus the decode table is what a cold Spec.Build costs;
	// Build itself would answer from the process's cache.
	var buildS float64
	for _, s := range workload.All() {
		end := r.tr.begin("layers", "workload.Spec.Rebuild "+s.Name)
		t0 := time.Now()
		prog, err := s.Rebuild(sweepIters(s, b.opt.Insts))
		if err == nil {
			prog.Decoded()
		}
		buildS += time.Since(t0).Seconds()
		end("")
		if err != nil {
			r.problem("rebuild %s: %v", s.Name, err)
		}
	}
	r.layer("workload.build_s", buildS)

	insts := uint64(r.scaled(pipelineInsts, 5_000))
	var emuInsts, emuS float64
	type tally struct{ insts, cycles, secs, allocs, runs float64 }
	var base, rees tally
	for _, s := range workload.All() {
		prog, err := s.Build(sweepIters(s, insts))
		if err != nil {
			r.problem("build %s: %v", s.Name, err)
			continue
		}
		m, err := emu.New(prog)
		if err != nil {
			r.problem("emu %s: %v", s.Name, err)
			continue
		}
		end := r.tr.begin("layers", "emu.Machine.Run "+s.Name)
		t0 := time.Now()
		n, err := m.Run(0) // to halt
		emuS += time.Since(t0).Seconds()
		end("")
		if err != nil {
			r.problem("emu %s: %v", s.Name, err)
		}
		emuInsts += float64(n)

		for _, cfg := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
			t := &base
			if cfg.Reese.Enabled {
				t = &rees
			}
			end := r.tr.begin("layers", "pipeline.Run "+s.Name+" "+cfg.Name)
			a0 := readRuntime().allocObjects
			t0 := time.Now()
			cpu, err := pipeline.New(cfg, prog, fault.None{})
			if err != nil {
				end("error")
				r.problem("pipeline %s: %v", s.Name, err)
				continue
			}
			res, err := cpu.Run(insts)
			t.secs += time.Since(t0).Seconds()
			t.allocs += float64(readRuntime().allocObjects - a0)
			end("")
			if err != nil {
				r.problem("pipeline %s: %v", s.Name, err)
				continue
			}
			t.insts += float64(res.Committed)
			t.cycles += float64(res.Cycles)
			t.runs++
		}
	}
	r.layer("emu.minsts_per_s", ratio(emuInsts, emuS)/1e6)
	r.layer("pipeline.minsts_per_s.baseline", ratio(base.insts, base.secs)/1e6)
	r.layer("pipeline.minsts_per_s.reese", ratio(rees.insts, rees.secs)/1e6)
	r.layer("pipeline.ns_per_cycle.baseline", ratio(base.secs, base.cycles)*1e9)
	r.layer("pipeline.ns_per_cycle.reese", ratio(rees.secs, rees.cycles)*1e9)
	r.layer("reese.host_cost_ratio", ratio(rees.secs, base.secs))
	r.layer("pipeline.allocs_per_run", ratio(base.allocs+rees.allocs, base.runs+rees.runs))
}

func (b *figuresBench) close() {}
