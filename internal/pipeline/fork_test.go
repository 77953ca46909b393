package pipeline

import (
	"reflect"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/program"
	"reese/internal/workload"
)

// checkpointAt runs prog on cfg up to commit at and returns the
// checkpoint taken there with a private copy of its memory.
func checkpointAt(t *testing.T, cfg config.Machine, prog *program.Program, at uint64) (*Checkpoint, *program.Memory) {
	t.Helper()
	cpu, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	var img *program.Memory
	cpu.SetBoundaryHook([]uint64{at}, func(c *CPU) bool {
		ck, img = c.Snapshot(nil), c.OracleMemory().Clone()
		return true
	})
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatalf("%s never reached commit %d", cfg.Name, at)
	}
	return ck, img
}

func gccProg(t *testing.T) *program.Program {
	t.Helper()
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc missing")
	}
	return spec.MustBuild(spec.DefaultIters)
}

// TestForkAllocationFree checks DESIGN §14's steady state: a fork into
// a recycled CPU of the same machine refills every component in place,
// a warm hang probe does too, and the fork leaves the worker its probe
// CPU. AllocsPerRun counts the whole process, so this test must not
// run in parallel with others.
func TestForkAllocationFree(t *testing.T) {
	prog := gccProg(t)
	for _, cfg := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
		ck, img := checkpointAt(t, cfg, prog, 3_000)
		cpu, err := ck.Fork(img.Clone(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A trial's worth of use: run on, then take a hang probe.
		if _, err := cpu.Run(ck.Committed + 2_000); err != nil {
			t.Fatal(err)
		}
		probe := cpu.probeSnapshot()
		mem := cpu.OracleMemory()
		fork := testing.AllocsPerRun(20, func() {
			if _, err := ck.Fork(mem, nil, cpu); err != nil {
				t.Fatal(err)
			}
		})
		if fork != 0 {
			t.Errorf("%s: Fork into a recycled CPU allocates %.0f", cfg.Name, fork)
		}
		if cpu.ffScratch != probe {
			t.Errorf("%s: Fork dropped the worker's probe CPU", cfg.Name)
		}
		if n := testing.AllocsPerRun(20, func() { cpu.probeSnapshot() }); n != 0 {
			t.Errorf("%s: a warm probeSnapshot allocates %.0f", cfg.Name, n)
		}
	}
}

// TestForkIntoRecycledCPUAcrossMachines forks each of two machines
// that differ in predictor kind, BTB geometry and redundancy scheme
// into a CPU the other one last ran, so every component's CloneInto
// meets a destination of another kind or size. Each run must equal a
// fork of the same checkpoint into a fresh CPU.
func TestForkIntoRecycledCPUAcrossMachines(t *testing.T) {
	prog := gccProg(t)
	comb := config.Starting().WithReese()
	comb.Name = "reese-combining"
	comb.Predictor = config.PredCombining
	comb.BTBSets, comb.BTBAssoc = 128, 2
	if err := comb.Validate(); err != nil {
		t.Fatal(err)
	}
	machines := []config.Machine{config.Starting(), comb}
	type run struct {
		res            Result
		commit, oracle emu.Digest
	}
	finish := func(ck *Checkpoint, img *program.Memory, dst *CPU) (*CPU, run) {
		t.Helper()
		cpu, err := ck.Fork(img.Clone(), nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.Run(ck.Committed + 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return cpu, run{res, cpu.CommitDigest(), cpu.OracleDigest()}
	}
	cks := make([]*Checkpoint, len(machines))
	imgs := make([]*program.Memory, len(machines))
	for i, cfg := range machines {
		cks[i], imgs[i] = checkpointAt(t, cfg, prog, 3_000)
	}
	for to := range machines {
		from := 1 - to
		_, want := finish(cks[to], imgs[to], nil)
		used, _ := finish(cks[from], imgs[from], nil)
		cpu, got := finish(cks[to], imgs[to], used)
		if cpu != used {
			t.Errorf("%s: Fork did not recycle the CPU", machines[to].Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s forked into a CPU last used by %s differs from a fresh fork: equal result %t, commit digest %t, oracle digest %t",
				machines[to].Name, machines[from].Name,
				reflect.DeepEqual(got.res, want.res), got.commit == want.commit, got.oracle == want.oracle)
		}
	}
}
