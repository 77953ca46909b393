package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reese/internal/obs"
)

// tracer keeps a traced run's spans in memory: one root obs.Span per
// lane (a workload loop, a client, a worker), each call into a layer a
// child of its lane's root. A nil *tracer records nothing, so untraced
// runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	lanes []*obs.Span
	count int
}

// begin opens a span on lane and returns the function that closes it
// with an outcome ("" for plain success).
func (t *tracer) begin(lane, name string) func(outcome string) {
	if t == nil {
		return func(string) {}
	}
	now := time.Now()
	t.mu.Lock()
	s := t.laneLocked(lane, now).StartChild(name, now)
	t.count++
	t.mu.Unlock()
	return func(outcome string) {
		end := time.Now()
		t.mu.Lock()
		s.Finish(end, outcome)
		t.mu.Unlock()
	}
}

// add attaches an already finished span tree to lane: a job's span tree
// from the server, a shard's lifetime from cluster events.
func (t *tracer) add(lane string, s *obs.Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.laneLocked(lane, s.Start)
	root.Children = append(root.Children, s)
	t.count++
}

func (t *tracer) laneLocked(lane string, at time.Time) *obs.Span {
	for _, l := range t.lanes {
		if l.Name == lane {
			return l
		}
	}
	l := obs.NewSpan(lane, at)
	t.lanes = append(t.lanes, l)
	return l
}

// roots returns the lanes for the parent to merge into one trace.
func (t *tracer) roots() []*obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lanes
}

// overhead estimates the share of the window the tracer itself cost:
// the spans recorded times the measured cost of recording one, over the
// window's wall time. (End-to-end metrics always come from untraced
// runs; this says how far the traced run's numbers are from them.)
func (t *tracer) overhead(windowS float64) float64 {
	t.mu.Lock()
	n := t.count
	t.mu.Unlock()
	const reps = 20000
	var scratch tracer
	start := time.Now()
	for i := 0; i < reps; i++ {
		scratch.begin("cost", "span")("")
	}
	perSpan := time.Since(start).Seconds() / reps
	return ratio(float64(n)*perSpan, windowS)
}

// traceEvent is one Chrome trace-event record ("X" complete events and
// "M" metadata naming processes and threads).
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace merges the children's lanes into one Chrome
// trace-event file that Perfetto (ui.perfetto.dev) and chrome://tracing
// load: one process per workload, one thread per lane. Spans that
// overlap on a lane without nesting (concurrent shards on one worker)
// spill onto numbered sub-lanes, because a trace viewer requires the
// slices of one thread to nest.
func writeChromeTrace(path string, children []childResult) error {
	var epoch time.Time
	for _, c := range children {
		for _, l := range c.Lanes {
			for _, s := range l.Children {
				if epoch.IsZero() || s.Start.Before(epoch) {
					epoch = s.Start
				}
			}
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }
	var events []traceEvent
	for pi, c := range children {
		pid := pi + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": c.Workload}})
		tid := 0
		for _, lane := range c.Lanes {
			spans := append([]*obs.Span(nil), lane.Children...)
			sort.SliceStable(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })
			var ends []time.Time // per sub-lane: end of its last span
			base := tid
			for _, s := range spans {
				sub := -1
				for i, e := range ends {
					if !s.Start.Before(e) {
						sub = i
						break
					}
				}
				if sub < 0 {
					sub = len(ends)
					ends = append(ends, time.Time{})
					name := lane.Name
					if sub > 0 {
						name = fmt.Sprintf("%s #%d", lane.Name, sub+1)
					}
					events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: base + sub + 1,
						Args: map[string]string{"name": name}})
				}
				ends[sub] = spanEnd(s)
				events = appendSpan(events, s, pid, base+sub+1, us)
			}
			tid = base + len(ends)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// appendSpan emits s and its descendants as complete events on one
// thread.
func appendSpan(events []traceEvent, s *obs.Span, pid, tid int, us func(time.Time) float64) []traceEvent {
	ev := traceEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(spanEnd(s)) - us(s.Start), PID: pid, TID: tid}
	if s.Outcome != "" {
		ev.Args = map[string]string{"outcome": s.Outcome}
	}
	events = append(events, ev)
	for _, c := range s.Children {
		events = appendSpan(events, c, pid, tid, us)
	}
	return events
}

// spanEnd is a span's end, or its start if it was never closed.
func spanEnd(s *obs.Span) time.Time {
	if s.End == nil {
		return s.Start
	}
	return *s.End
}
