package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"reese/internal/config"
)

// TestFigureCancellation: a cancelled Options.Ctx aborts a grid, or a
// whole sweep, instead of simulating all its cells.
func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Figure2(Options{Insts: 50_000, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure2 with cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := AllFigures(Options{Insts: 50_000, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllFigures with cancelled ctx: %v, want context.Canceled", err)
	}

	start := time.Now()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	_, err := Figure2(Options{Insts: 10_000_000, Ctx: ctx2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Figure2 with deadline: %v, want context.DeadlineExceeded", err)
	}
	// A full 10M-inst figure takes minutes; the deadline must cut the
	// grid short long before that.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestExperimentsHonourCancel: every experiment, fault-injected or
// not, stops on a cancelled Options.Ctx and reports its simulations'
// commits through Options.Progress.
func TestExperimentsHonourCancel(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Options) error
	}{
		{"RSQSweep", func(opt Options) error {
			_, _, err := RSQSweep([]int{8}, opt)
			return err
		}},
		{"PartialReexecSweep", func(opt Options) error {
			_, err := PartialReexecSweep([]int{2}, opt)
			return err
		}},
		{"DetectionLatencyVsRSQ", func(opt Options) error {
			_, _, err := DetectionLatencyVsRSQ([]int{8}, opt)
			return err
		}},
		{"PermanentFaultCoverage", func(opt Options) error {
			_, err := PermanentFaultCoverage(opt)
			return err
		}},
		{"BitGrid", func(opt Options) error {
			_, err := BitGrid(config.Starting().WithReese(), "li", 100, opt)
			return err
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range experiments {
		var progress atomic.Uint64
		if err := e.run(Options{Insts: 5_000, Ctx: cancelled, Progress: &progress}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: %v, want context.Canceled", e.name, err)
		}
		if err := e.run(Options{Insts: 5_000, Progress: &progress}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if progress.Load() == 0 {
			t.Errorf("%s added nothing to Options.Progress", e.name)
		}
	}
}
