package harness

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// ablationsGoldenInsts keeps the golden ablation report to a few
// seconds while every fault-injected experiment still sees faults.
const ablationsGoldenInsts = 10_000

// TestAblationsGolden pins the report `reese-sweep -figure ablations`
// prints, byte for byte, sequentially and on the default worker pool.
// How the harness schedules or shares the cells behind the seven
// ablations must never show in it. Regenerate with -update-golden only
// for an intentional change to the simulated timing, and review the
// diff.
func TestAblationsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "ablations.golden.txt")
	for _, par := range []int{1, 0} {
		got, err := Ablations(Options{Insts: ablationsGoldenInsts, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden && par == 1 {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to create it)", err)
		}
		if got != string(want) {
			t.Errorf("Parallel=%d: ablations output drifted from %s\n got:\n%s\nwant:\n%s\n(if intentional, rerun with -update-golden)",
				par, golden, got, want)
		}
	}
}

// TestAblationsSimulateEachCellOnce counts the committed instructions
// the ablations' grids report through Options.Progress when run in one
// runGrids pass. They declare 204 cells, but 30 of them repeat a
// machine another grid holds (the starting baseline, the default REESE
// machine), so only 174 are distinct. Each cell commits its budget and
// overshoots by less than one commit group (at most 8 wide here).
func TestAblationsSimulateEachCellOnce(t *testing.T) {
	const cells, insts, maxWidth = 174, 2_000, 8
	var grids []grid
	for _, a := range ablations() {
		grids = append(grids, a.grids...)
	}
	var progress atomic.Uint64
	if _, err := runGrids(grids, Options{Insts: insts, Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	got := progress.Load()
	if lo, hi := uint64(cells*insts), uint64(cells*(insts+maxWidth)); got < lo || got >= hi {
		t.Errorf("ablation grids committed %d insts, want in [%d, %d): %d cells of %d insts each",
			got, lo, hi, cells, insts)
	}
}
