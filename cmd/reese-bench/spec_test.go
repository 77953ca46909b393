package main

import (
	"strings"
	"testing"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "pipeline.minsts_per_s.reese", "campaign.trial_ms.p50", "9lives", "a-b", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "p50%", "ünï", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

func TestSpecRejectsBadDefinitions(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"duplicate name": func(s *Spec) { s.PerLayer[0].Name = "ops_per_s" },
		"bad name":       func(s *Spec) { s.PerLayer[0].Name = "bad name" },
		"bad unit":       func(s *Spec) { s.EndToEnd[0].Unit = "per second" },
		"bad direction":  func(s *Spec) { s.EndToEnd[0].Better = "more" },
		"bound too wide": func(s *Spec) { s.EndToEnd[1].Bound = 0.3 },
		"no bound":       func(s *Spec) { s.EndToEnd[1].Bound = 0 },
	} {
		s := testSpec(t)
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

// The definition shipped at the repository root must load, and name
// exactly the workloads this command implements.
func TestRepositorySpec(t *testing.T) {
	s, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(benches) {
		t.Errorf("BENCHMARK.json has %d workloads, the command implements %d", len(s.Workloads), len(benches))
	}
	for _, w := range s.Workloads {
		if benches[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	m, ok := s.Metric("setup_s")
	if !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s = %+v, %v; want unit s, lower is better", m, ok)
	}
}
