package pipeline

import (
	"testing"

	"reese/internal/fault"
	"reese/internal/workload"
)

// allocBudget is the most allocations one New + Run(100k) on gcc may
// make, by schemeMachines index: the baseline and REESE. Growing either
// is a regression. The cycle loop allocates nothing, so the count is
// New's fixed slot arrays plus the end-of-run report.
var allocBudget = map[int]float64{0: 38, 1: 41}

// TestCycleLoopAllocationFree checks DESIGN §9's claim on every
// redundancy scheme of TestSchemesGolden: a 100k-instruction run
// allocates exactly as much as a 1k-instruction one, so no allocation
// happens per cycle. It also holds the baseline and REESE machines to
// their budgets. AllocsPerRun counts the whole process, so this test
// must not run in parallel with others.
func TestCycleLoopAllocationFree(t *testing.T) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc missing")
	}
	prog := spec.MustBuild(spec.DefaultIters * 2)
	for mi, cfg := range schemeMachines() {
		allocs := func(insts uint64) float64 {
			return testing.AllocsPerRun(2, func() {
				cpu, err := New(cfg, prog, fault.None{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cpu.Run(insts); err != nil {
					t.Fatal(err)
				}
			})
		}
		long, short := allocs(100_000), allocs(1_000)
		if long != short {
			t.Errorf("%s: Run(100k) allocates %.0f, Run(1k) %.0f: the cycle loop allocates", cfg.Name, long, short)
		}
		if max, ok := allocBudget[mi]; ok && long > max {
			t.Errorf("%s: New+Run(100k) allocates %.0f, budget %.0f", cfg.Name, long, max)
		}
	}
}
