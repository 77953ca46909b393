package pipeline

// Pipeline event tracing — the equivalent of SimpleScalar's ptrace. When
// enabled, the CPU writes one line per pipeline event (fetch, dispatch,
// issue, writeback, RSQ entry, R-dispatch, verify, commit, recovery) to
// an io.Writer, letting a developer watch instructions move through the
// machine cycle by cycle.
//
// The event vocabulary is shared with the flight recorder
// (internal/obs.Recorder): the same lifecycle points feed both the
// line-oriented trace and the ring buffer, and both are nil-gated so a
// run with neither enabled pays only a pointer test per event site.

import (
	"fmt"
	"io"

	"reese/internal/emu"
	"reese/internal/obs"
)

// SetTrace directs pipeline event lines to w (nil disables tracing).
// Call before Run; tracing large runs produces a lot of output.
func (c *CPU) SetTrace(w io.Writer) { c.traceW = w }

// traceEvent emits one event line if tracing is enabled.
func (c *CPU) traceEvent(kind obs.EventKind, tr *emu.Trace, detail string) {
	if c.traceW == nil {
		return
	}
	if detail != "" {
		fmt.Fprintf(c.traceW, "%8d %-10s %#08x %-24s %s\n", c.cycle, kind, tr.PC, tr.Inst.String(), detail)
		return
	}
	fmt.Fprintf(c.traceW, "%8d %-10s %#08x %s\n", c.cycle, kind, tr.PC, tr.Inst.String())
}

// event emits one lifecycle event to the text trace (with detail) and
// the flight recorder, each only when armed. It inlines to two nil
// checks when neither is.
func (c *CPU) event(kind obs.EventKind, seq uint64, tr *emu.Trace, detail string, fuKind uint8, unit int16) {
	if c.traceW != nil || c.recorder != nil {
		c.emit(kind, seq, tr, detail, fuKind, unit)
	}
}

func (c *CPU) emit(kind obs.EventKind, seq uint64, tr *emu.Trace, detail string, fuKind uint8, unit int16) {
	c.traceEvent(kind, tr, detail)
	c.recordAt(c.cycle, kind, seq, tr, fuKind, unit)
}

// SetRecorder arms the flight recorder: every lifecycle event is also
// appended to r's ring buffer (fixed cost, no allocation). Call before
// Run; nil disarms. Dump with r.WriteChromeTrace after the run.
func (c *CPU) SetRecorder(r *obs.Recorder) { c.recorder = r }

// Recorder returns the armed flight recorder (nil when off).
func (c *CPU) Recorder() *obs.Recorder { return c.recorder }

// MarkDivergence records a DIVERGENCE instant into the flight recorder
// (no-op when the recorder is off). The triage pass calls it from its
// commit watch when the lockstep golden comparison finds the first
// divergent commit; it bypasses the triage freeze window by
// construction (markers always record).
func (c *CPU) MarkDivergence(cycle, seq uint64, tr emu.Trace) {
	if c.recorder == nil {
		return
	}
	c.recorder.Record(obs.Event{
		Cycle: cycle,
		Seq:   seq,
		PC:    tr.PC,
		Inst:  tr.Inst,
		Kind:  obs.EvDivergence,
	})
}

// record appends one flight-recorder event stamped with the current
// cycle. Callers on the hot path guard with `c.recorder != nil` first,
// like the traceW gate, so the disabled cost is one pointer test.
func (c *CPU) record(kind obs.EventKind, seq uint64, tr *emu.Trace, fuKind uint8, unit int16) {
	c.recordAt(c.cycle, kind, seq, tr, fuKind, unit)
}

// recordAt is record with an explicit cycle stamp — used to backdate
// the fetch event to the cycle the instruction actually entered the
// fetch queue (its sequence number only exists from dispatch on).
func (c *CPU) recordAt(cycle uint64, kind obs.EventKind, seq uint64, tr *emu.Trace, fuKind uint8, unit int16) {
	if c.recorder == nil {
		return
	}
	// Triage window (SetRecorderWindow): once the injector has fired and
	// the post-injection window has passed, lifecycle recording freezes —
	// the ring keeps the context around the injection instead of the tail
	// of the run. Marker kinds always land so late detections and the
	// divergence instant stay visible.
	if c.recFreeze != 0 && c.faultCycle != 0 && cycle > c.faultCycle+c.recFreeze {
		switch kind {
		case obs.EvFaultInjected, obs.EvMismatch, obs.EvRecovery, obs.EvDivergence:
		default:
			return
		}
	}
	c.recorder.Record(obs.Event{
		Cycle: cycle,
		Seq:   seq,
		PC:    tr.PC,
		Inst:  tr.Inst,
		Kind:  kind,
		FU:    fuKind,
		Unit:  unit,
	})
}
