package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: the parent
// side of a measurement re-executes os.Executable() with -child, which
// here is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// A part on a host twice as slow as the reference, doing half the work
// in twice the time, must read the same as a part on the reference.
func TestEndToEndScalesByHostSpeed(t *testing.T) {
	ps := []partSummary{
		{SetupS: 0.4, WindowS: 2, MaxRSSKB: 100 << 10, CalibS: calRefS},
		{SetupS: 0.8, WindowS: 2, MaxRSSKB: 200 << 10, CalibS: 2 * calRefS},
	}
	ops := []opSample{
		{Part: 0, LatMS: 100, Units: 10},
		{Part: 0, LatMS: 120, Units: 10},
		{Part: 1, LatMS: 240, Units: 10},
	}
	for _, c := range []struct {
		name string
		slow []float64
		want map[string]float64
	}{
		{"scaled", []float64{1, 2}, map[string]float64{"setup_s": 0.4, "ops_per_s": 10, "lat_p50_ms": 120, "rss_peak_mb": 200}},
		{"unscaled", []float64{1, 1}, map[string]float64{"setup_s": 0.6, "ops_per_s": 7.5, "lat_p50_ms": 120, "rss_peak_mb": 200}},
	} {
		got := endToEnd(ps, ops, c.slow)
		for k, want := range c.want {
			if !near(got[k], want) {
				t.Errorf("%s: %s = %g, want %g", c.name, k, got[k], want)
			}
		}
	}
}

// TestSmokeAllWorkloads measures every workload at 1% of its work per
// operation, untraced and then traced, through the same child processes
// a real run uses.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process per workload phase")
	}
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// About 13 s normally; the race detector makes it several times slower.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	t.Run("untraced", func(t *testing.T) {
		for _, w := range spec.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				o := options{workload: w.Name, seed: 7, seconds: 0.2, scale: 0.01, tmp: t.TempDir()}
				rec, err := measureUntraced(ctx, spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 {
					t.Errorf("correct=%v, %d of %d failed: %q", rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
				}
				for _, m := range spec.EndToEnd {
					if rec.Metrics[m.Name] <= 0 {
						t.Errorf("%s = %g, want > 0", m.Name, rec.Metrics[m.Name])
					}
				}
				if len(rec.Digests) == 0 {
					t.Error("no output digests")
				}
			})
		}
	})

	o := options{workload: "serve", seed: 7, seconds: 0.2, scale: 0.01, tmp: t.TempDir(), trace: true}
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	rec, err := measureTraced(ctx, spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("traced run failed its checks: %q", rec.Problems)
	}
	raw, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not trace-event JSON: %v", err)
	}
	// One span name per layer call the traced run times.
	for _, want := range []string{
		"harness.AllFigures", "workload.Spec.Rebuild", "emu.Machine.Run", "pipeline.Run",
		"harness.Campaign", "faults", "queue-wait", "POST /v1/cluster/faults", "POST batch", "shard",
	} {
		found := false
		for _, ev := range trace.TraceEvents {
			if ev.Ph == "X" && strings.HasPrefix(ev.Name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace has no %q span", want)
		}
	}
}
