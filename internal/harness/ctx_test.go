package harness

import (
	"context"
	"errors"
	"testing"
	"time"
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
