package main

import "testing"

// Consecutive run requests must never repeat a body: a repeat is a
// result-cache hit, and the load test would measure the cache instead
// of the simulator.
func TestRunBodiesAreDistinct(t *testing.T) {
	g := &generator{kind: "run", workload: "gcc", insts: 50_000}
	seen := make(map[string]uint64)
	for seq := uint64(1); seq <= 1000; seq++ {
		b := g.body(seq)
		if prev, ok := seen[b]; ok {
			t.Fatalf("request %d repeats request %d's body %s", seq, prev, b)
		}
		seen[b] = seq
	}
}

// An unknown -kind must stop the command before it drives anything;
// the known kinds get past the check and fail later for want of a
// target.
func TestKindValidated(t *testing.T) {
	for kind, want := range map[string]int{"clsuter": 2, "": 2, "run": 1, "faults": 1, "cluster": 1} {
		if got := run([]string{"-kind", kind}); got != want {
			t.Errorf("-kind %q: exit %d, want %d", kind, got, want)
		}
	}
}
