package pipeline

import (
	"fmt"

	"reese/internal/obs"
	"reese/internal/ruu"
)

// dupScheme is duplicate-at-the-scheduler (config.ModeDupDispatch), the
// Franklin [24] scheme the paper positions REESE against: every
// instruction dispatches as an adjacent (original, duplicate) RUU pair
// that inherits the original's register dependencies, and the pair is
// compared at commit. It has no state and no R stream of its own, so it
// shares the baseline's idle hooks.
type dupScheme struct{ baseline }

func (s dupScheme) clone(scheme) scheme                { return s }
func (s dupScheme) converged(o scheme, _, _ *CPU) bool { return o == scheme(s) }

// squashCut keeps the branch's duplicate, which was dispatched with it
// before any wrong-path entry.
func (dupScheme) squashCut(seq uint64) uint64 { return seq + 1 }

// admit needs room for the whole pair before dispatching either half;
// wrong-path entries stay single.
func (dupScheme) admit(c *CPU, fe *fetchEntry) obs.StallCause {
	if fe.bogus {
		return obs.CauseNone
	}
	if c.ruu.Cap()-c.ruu.Len() < 2 {
		return obs.CauseDispatchRUUFull
	}
	if fe.tr.Inst.Op.IsMem() && c.lsq.Cap()-c.lsq.Len() < 2 {
		return obs.CauseDispatchLSQFull
	}
	return obs.CauseNone
}

// dispatched places the duplicate right behind the original.
func (dupScheme) dispatched(c *CPU, fe *fetchEntry, e *ruu.Entry) {
	if fe.bogus {
		return
	}
	lsqSeq := ruu.NoProducer
	if fe.tr.Inst.Op.IsMem() {
		lsqSeq = c.lsq.Dispatch(fe.tr, c.ruu.NextSeq()).MemSeq
	}
	d := c.ruu.DispatchDup(fe.tr, e.Seq, e.Dep1, e.Dep2, lsqSeq)
	if c.traceW != nil {
		c.traceEvent(obs.EvDispatch, &d.Trace, fmt.Sprintf("seq=%d (duplicate of %d)", d.Seq, e.Seq))
	}
}

// issueStore makes the duplicate's store the architectural cache write.
func (dupScheme) issueStore(c *CPU, e *ruu.Entry) {
	if e.Dup {
		c.hier.DataLatency(e.Trace.Addr, true)
	}
}

// commit retires (original, duplicate) pairs in order, comparing the two
// executions' latched outcomes. Both halves consume commit bandwidth.
func (dupScheme) commit(c *CPU) int {
	used := 0
	for n := 0; n+1 < c.cfg.Width && c.ruu.Len() >= 2; n += 2 {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			return used
		}
		if h.Bogus {
			// Should be unreachable (squash precedes commit), but a
			// single bogus entry has no pair; guard explicitly.
			panic("pipeline: bogus instruction reached dup commit")
		}
		d := c.ruu.Get(h.Seq + 1)
		if !d.Dup || d.PairSeq != h.Seq {
			panic(fmt.Sprintf("pipeline: dup pairing broken at seq %d", h.Seq))
		}
		if !d.Completed || d.DoneAt > c.cycle {
			return used
		}
		if h.ResultP != d.ResultP || h.NextPCP != d.NextPCP ||
			h.AddrP != d.AddrP || h.StoreValueP != d.StoreValueP {
			c.event(obs.EvMismatch, h.Seq, &h.Trace, "pair comparator hit", 0, -1)
			faulted, at := h.HasFault(), h.FaultCycle
			if !faulted {
				faulted, at = d.HasFault(), d.FaultCycle
			}
			c.onMismatch(h.Seq, h.Trace.PC, faulted, at)
			return used
		}
		// A fault that corrupted BOTH copies identically (a common-mode
		// or permanent fault hitting the same computation twice) passes
		// the comparator: that is pure duplication's blind spot, and it
		// retires as silent corruption. REESE's recomputation-based
		// comparator does not share it.
		commonMode := h.HasFault() || d.HasFault()
		e := c.ruu.RemoveHead()
		c.ruu.RemoveHead()
		if e.LSQSeq != ruu.NoProducer {
			c.lsq.RemoveHead()
			c.lsq.RemoveHead() // the duplicate's entry is adjacent
		}
		used += 2
		c.event(obs.EvCommit, e.Seq, &e.Trace, "pair verified", 0, -1)
		c.retire(e.Trace, false, commonMode, e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			return used
		}
	}
	return used
}
