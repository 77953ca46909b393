package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"reese/internal/config"
)

func TestForEachRunsAllIndices(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 64} {
		var hits [50]atomic.Int32
		if err := forEach(len(hits), parallel, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times", parallel, i, n)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		err := forEach(20, parallel, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("parallel=%d: err = %v, want boom 7", parallel, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := forEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDeterminism is the regression guard for the worker pool
// and per-run seeding: a figure grid and a fault campaign must render
// byte-identical tables whether run strictly sequentially or on a wide
// pool.
func TestParallelDeterminism(t *testing.T) {
	seq := Options{Insts: 8_000, Parallel: 1}
	par := Options{Insts: 8_000, Parallel: 8}

	figSeq, err := Figure2(seq)
	if err != nil {
		t.Fatal(err)
	}
	figPar, err := Figure2(par)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := figSeq.Table(), figPar.Table(); a != b {
		t.Errorf("Figure2 differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}

	base := CampaignSpec{Machine: config.Starting(), Injections: 20, Seed: 42}
	campSeq, _, err := CampaignAll(base, func(s CampaignSpec) (*CampaignReport, error) { return Campaign(s, seq) })
	if err != nil {
		t.Fatal(err)
	}
	campPar, _, err := CampaignAll(base, func(s CampaignSpec) (*CampaignReport, error) { return Campaign(s, par) })
	if err != nil {
		t.Fatal(err)
	}
	if campSeq != campPar {
		t.Errorf("CampaignAll differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", campSeq, campPar)
	}

	gridSeq, err := BitGrid(config.Starting().WithReese(), "li", 2_000, Options{Insts: 20_000, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	gridPar, err := BitGrid(config.Starting().WithReese(), "li", 2_000, Options{Insts: 20_000, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := BitGridTable(gridSeq), BitGridTable(gridPar); a != b {
		t.Errorf("BitGrid differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}
