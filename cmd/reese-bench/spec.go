package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the workloads, and every metric with its unit,
// direction and (for end-to-end metrics) regression bound. The benchmark
// reads it at start-up so names, units and bounds live in one place.
type Spec struct {
	RunSeconds  int        `json:"run_seconds"`
	Workloads   []Workload `json:"workloads"`
	EndToEnd    []Metric   `json:"end_to_end"`
	PerLayer    []Metric   `json:"per_layer"`
	definitions map[string]Metric
}

// Workload names one input set and says why the benchmark runs it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal workload or metric name.
func validName(s string) bool { return nameRE.MatchString(s) }

// LoadSpec reads and validates a BENCHMARK.json file.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !validName(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return fmt.Errorf("needs workloads, end_to_end and per_layer entries")
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	s.definitions = map[string]Metric{}
	for i, group := range [][]Metric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				return fmt.Errorf("metric %s: better must be higher or lower", m.Name)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			s.definitions[m.Name] = m
		}
	}
	return nil
}

// Metric returns the definition of a named metric.
func (s *Spec) Metric(name string) (Metric, bool) {
	m, ok := s.definitions[name]
	return m, ok
}

// hasWorkload reports whether name is one of the spec's workloads.
func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
