package pipeline

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/fu"
	"reese/internal/obs"
	"reese/internal/reese"
	"reese/internal/ruu"
)

// rReserve is the number of RUU slots P-stream dispatch may never take
// on a REESE machine, guaranteeing the R-stream Queue can always
// dispatch copies and drain — without it a full RSQ and a P-full RUU
// would deadlock each other.
const rReserve = 2

// rsqScheme is REESE (paper §4): completed instructions leave the RUU
// head for the R-stream Queue, their R copies re-enter the pipeline
// through idle dispatch and issue slots, a comparator checks each
// re-execution against the latched P-stream outcome, and verified
// instructions retire from the queue head. All of its state lives in the
// queue, so the scheme is pointer-shaped and storing it in the CPU's
// scheme field allocates nothing.
type rsqScheme struct{ q *reese.Queue }

// cycle samples occupancy and, once it crosses the high-water mark,
// gives the R stream dispatch and issue priority so the queue drains
// (paper §4.3).
func (s rsqScheme) cycle() bool {
	s.q.Sample()
	if !s.q.PressureHigh() {
		return false
	}
	s.q.NotePriorityCycle()
	return true
}

// windowFree returns the number of unoccupied window slots: P-stream
// instructions hold one while resident in the RUU, dispatched R copies
// until their comparison completes.
func (s rsqScheme) windowFree(c *CPU) int { return c.cfg.RUUSize - c.ruu.Len() - s.q.InFlight() }

func (s rsqScheme) admit(c *CPU, _ *fetchEntry) obs.StallCause {
	if s.windowFree(c) <= rReserve {
		return obs.CauseDispatchRUUFull
	}
	return obs.CauseNone
}

func (rsqScheme) dispatched(*CPU, *fetchEntry, *ruu.Entry) {}
func (s rsqScheme) inFlight() int                          { return s.q.InFlight() }
func (rsqScheme) squashCut(seq uint64) uint64              { return seq }

// issueStore writes nothing: the architectural cache write happens at
// R-stream issue, on the verified path.
func (rsqScheme) issueStore(*CPU, *ruu.Entry) {}

// dispatchR moves the queue's oldest undispatched copy into the
// execution window, reporting whether it did. R copies carry their
// operands, so they claim no rename slot and track no dependencies, but
// they occupy a window slot and a dispatch slot like any other
// instruction — this sharing is where REESE's overhead comes from.
func (s rsqScheme) dispatchR(c *CPU) bool {
	e := s.q.NextToDispatch()
	if e == nil {
		return false
	}
	if s.windowFree(c) <= 0 {
		c.blockDispatch(obs.CauseDispatchRUUFull)
		return false
	}
	s.q.MarkDispatched(e)
	if c.traceW != nil {
		c.traceEvent(obs.EvDispatchR, &e.Trace, fmt.Sprintf("qseq=%d", e.QSeq))
	}
	if c.recorder != nil {
		c.record(obs.EvDispatchR, e.Seq, &e.Trace, 0, -1)
	}
	return true
}

// issueR issues dispatched R copies. They carry their operands, so
// readiness is never in question — only functional-unit availability.
// Copies blocked on a busy unit class are skipped; they hold their
// window slot until they get one, which is exactly how FU shortage
// turns into window pressure on the P stream (and why spare elements
// recover performance).
func (s rsqScheme) issueR(c *CPU, budget int) int {
	s.q.Scan(func(e *reese.Entry) bool {
		if budget <= 0 {
			return false
		}
		if !e.Dispatched || e.Issued {
			return true
		}
		op := e.Trace.Inst.Op
		kind := fu.KindFor(op.Class())
		unit, ok := c.pool.AcquireUnit(kind, c.cycle, op.IssueLatency())
		if !ok {
			c.issueNoFU = true
			return true
		}
		doneAt := c.cycle + uint64(op.OpLatency())
		switch {
		case op.IsLoad():
			// The R-stream load re-reads the D-cache; the P stream
			// brought the line in, so this almost always hits (§4.4).
			doneAt = c.cycle + uint64(c.hier.DataLatency(e.Trace.Addr, false))
		case op.IsStore():
			// The architectural cache write, performed only on the
			// verified path (the store buffer drains here).
			c.hier.DataLatency(e.Trace.Addr, true)
			doneAt = c.cycle + 1
		}
		e.RKind, e.RUnit = uint8(kind), unit
		if c.stuck != nil && c.stuck.Hits(uint8(kind), unit) {
			e.RFaultMask = c.stuck.Mask()
		}
		s.q.MarkIssued(e, c.cycle, doneAt)
		if c.traceW != nil {
			c.traceEvent(obs.EvIssueR, &e.Trace, fmt.Sprintf("done@%d", doneAt))
		}
		if c.recorder != nil {
			c.record(obs.EvIssueR, e.Seq, &e.Trace, uint8(kind)+1, int16(unit))
		}
		budget--
		return true
	})
	return budget
}

// verify is the comparator between writeback and commit: completed
// re-executions check against the latched P-stream outcome and release
// their window slot. The first mismatch triggers recovery, which
// flushes everything behind it anyway.
func (s rsqScheme) verify(c *CPU) {
	var bad *reese.Entry
	s.q.Scan(func(e *reese.Entry) bool {
		if !e.Issued || e.Done || e.DoneAt > c.cycle {
			return true
		}
		if !s.q.Compare(e) {
			bad = e
			c.event(obs.EvMismatch, e.Seq, &e.Trace, "comparator hit: soft error detected", e.RKind+1, int16(e.RUnit))
			return false
		}
		c.event(obs.EvVerify, e.Seq, &e.Trace, "", e.RKind+1, int16(e.RUnit))
		return true
	})
	if bad != nil {
		c.onMismatch(bad.Seq, bad.Trace.PC, bad.HasFault(), bad.FaultCycle)
	}
}

// commit retires verified instructions from the queue head, then refills
// the queue from the RUU head — the only place a full RSQ back-pressures
// the P stream. Retiring entries' LSQ slots were released when they
// entered the queue: the entry carries operands and result, and
// unverified stores forward to younger loads from there (the paper's
// extra forwarding hardware, §4.3).
func (s rsqScheme) commit(c *CPU) int {
	used := 0
	for n := 0; n < c.cfg.Width && !s.q.Empty(); n++ {
		if !s.q.Head().Verified {
			break
		}
		e := s.q.RetireHead()
		used++
		c.event(obs.EvCommit, e.Seq, &e.Trace, "verified", 0, -1)
		c.retire(e.Trace, false, e.HasFault(), e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			return used
		}
	}

	for n := 0; n < c.cfg.Width && !c.ruu.Empty(); n++ {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			break
		}
		if s.q.Full() {
			s.q.NoteFullStall()
			break
		}
		e := c.ruu.RemoveHead()
		if e.Bogus {
			panic(fmt.Sprintf("pipeline: bogus instruction reached the R-stream Queue: seq=%d pc=%#x %s", e.Seq, e.Trace.PC, e.Trace.Inst))
		}
		if e.LSQSeq != ruu.NoProducer {
			c.lsq.RemoveHead()
		}
		c.event(obs.EvEnterRSQ, e.Seq, &e.Trace, "", 0, -1)
		ent := reese.Entry{Seq: e.Seq, Trace: e.Trace, ResultP: e.ResultP, NextPCP: e.NextPCP, AddrP: e.AddrP,
			StoreValueP: e.StoreValueP, FaultBit: e.FaultBit, FaultCycle: e.FaultCycle, LSQSeq: e.LSQSeq}
		if e.Seq >= c.hookHorizon {
			c.hookHorizon = e.Seq + 1
		}
		if c.sites != nil {
			if cor, ok := c.sites.RSQEnqueue(e.Seq, e.Trace); ok {
				// A transient in the RSQ itself: the stored copies are
				// corrupted while e.Trace (what recovery replays) stays
				// clean, so a detected RSQ fault recovers cleanly.
				ent.ResultP ^= cor.ResultMask
				ent.NextPCP ^= cor.NextPCMask
				ent.AddrP ^= cor.AddrMask
				ent.StoreValueP ^= cor.StoreMask
				ent.OperandAMask = cor.OperandAMask
				ent.OperandBMask = cor.OperandBMask
				ent.CompIgnore = cor.CompIgnoreMask
				ent.FaultBit = cor.Bit % 32
				ent.FaultCycle = c.cycle
				c.noteInjection()
				if c.traceW != nil {
					c.traceEvent(obs.EvFaultInjected, &e.Trace, fmt.Sprintf("rsq bit %d", ent.FaultBit))
				}
				if c.recorder != nil {
					c.record(obs.EvFaultInjected, e.Seq, &e.Trace, 0, -1)
				}
			}
		}
		s.q.Enqueue(ent, c.cycle)
	}
	return used
}

// commitStall charges an unverified queue head first. When the queue is
// also full it is crammed faster than the R stream can drain it — the
// paper's overflow condition (§4.3) — which is the actionable signal. A
// latched RUU head that failed to enter the queue means the refill loop
// hit a full RSQ.
func (s rsqScheme) commitStall(c *CPU) obs.StallCause {
	switch {
	case s.q.Full():
		return obs.CauseRSQFull
	case !s.q.Empty():
		return obs.CauseRecheckPending
	}
	return c.windowStall(obs.CauseRSQFull)
}

// drain retires queued instructions older than the fault (already
// executed; their verification outcome is what it is) and replays the
// rest.
func (s rsqScheme) drain(c *CPU, faultSeq uint64, replay []emu.Trace) []emu.Trace {
	s.q.Scan(func(e *reese.Entry) bool {
		if e.Seq >= faultSeq {
			replay = append(replay, e.Trace)
		} else {
			c.retire(e.Trace, false, false, e.ResultP, e.AddrP, e.StoreValueP)
		}
		return true
	})
	s.q.Flush()
	return replay
}

func (s rsqScheme) clone(dst scheme) scheme {
	d, _ := dst.(rsqScheme)
	return rsqScheme{s.q.CloneInto(d.q)}
}

// converged compares the queues under ruu.Converged's normalization.
// Under partial re-execution the skip decision of future enqueues
// depends on absolute sequence numbers, so relative convergence is not
// enough: the RUUs must align exactly.
func (s rsqScheme) converged(o scheme, c, g *CPU) bool {
	gs, ok := o.(rsqScheme)
	return ok && s.q.StateConverged(gs.q, c.cycle, g.cycle, &c.lsq, &g.lsq) &&
		(s.q.Every() <= 1 || c.ruu.NextSeq() == g.ruu.NextSeq())
}

func (s rsqScheme) extrapolate(prev scheme, k uint64) { s.q.Extrapolate(prev.(rsqScheme).q, k) }

// report fills Result.Reese and the occupancy figures, which are also
// the machine's P-to-R-stream separation in instructions (the paper's
// Δt, §2).
func (s rsqScheme) report(res Result, cycles uint64) Result {
	st := s.q.Stats()
	res.Reese = &st
	sum, peak := s.q.Occupancy()
	res.RSQOccupancyMax = peak
	if cycles > 0 {
		res.RSQOccupancyMean = float64(sum) / float64(cycles)
	}
	return res
}
