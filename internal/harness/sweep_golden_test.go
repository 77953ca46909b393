package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// sweepGoldenInsts keeps the golden sweep to a few seconds while still
// exercising every grid, every derived row and every claim.
const sweepGoldenInsts = 3_000

// sweepDoc is everything the paper-sweep entry points produce at one
// scale: the AllFigures report, the Figure 6 and 7 series, and the
// outcome of each claim check.
type sweepDoc struct {
	AllFigures string         `json:"all_figures"`
	Figure6    []SummaryRow   `json:"figure6"`
	Figure7    []Figure7Point `json:"figure7"`
	Claims     []claimOutcome `json:"claims"`
}

type claimOutcome struct {
	ID       string `json:"id"`
	Measured string `json:"measured"`
	Pass     bool   `json:"pass"`
}

func runSweepDoc(t *testing.T, opt Options) []byte {
	t.Helper()
	var doc sweepDoc
	var err error
	if doc.AllFigures, err = AllFigures(opt); err != nil {
		t.Fatal(err)
	}
	if doc.Figure6, err = Figure6(opt); err != nil {
		t.Fatal(err)
	}
	if doc.Figure7, err = Figure7(opt); err != nil {
		t.Fatal(err)
	}
	claims, err := CheckClaims(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range claims {
		doc.Claims = append(doc.Claims, claimOutcome{c.ID, c.Measured, c.Pass})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepGolden pins the output of the paper sweep — AllFigures,
// Figure6, Figure7 and CheckClaims — byte for byte, sequentially and on
// the default worker pool. How the harness schedules, shares or derives
// the cells behind these figures must never show in them. Regenerate
// with -update-golden only for an intentional change to the simulated
// timing, and review the diff.
func TestSweepGolden(t *testing.T) {
	golden := filepath.Join("testdata", "sweep.golden.json")
	for _, par := range []int{1, 0} {
		got := runSweepDoc(t, Options{Insts: sweepGoldenInsts, Parallel: par})
		if *updateGolden && par == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Parallel=%d: sweep output drifted from %s\n got:\n%s\nwant:\n%s\n(if intentional, rerun with -update-golden)",
				par, golden, got, want)
		}
	}
}

// TestAllFiguresSimulatesEachCellOnce counts the committed instructions
// one AllFigures call reports through Options.Progress. Figures 2-5 and
// Figure 7's four grids hold 186 distinct cells; Figure 6 summarises
// Figures 2-5 and must not simulate them again. Each cell commits its
// budget and overshoots by less than one commit group (at most 16 wide).
func TestAllFiguresSimulatesEachCellOnce(t *testing.T) {
	const cells, insts, maxWidth = 186, 2_000, 16
	var progress atomic.Uint64
	if _, err := AllFigures(Options{Insts: insts, Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	got := progress.Load()
	if lo, hi := uint64(cells*insts), uint64(cells*(insts+maxWidth)); got < lo || got >= hi {
		t.Errorf("AllFigures committed %d insts, want in [%d, %d): %d cells of %d insts each",
			got, lo, hi, cells, insts)
	}
}
