package reese

import (
	"reese/internal/ring"
	"reese/internal/ruu"
)

// StateConverged reports whether two R-stream Queues behave identically
// from here on, under the same normalization rules as ruu.Converged:
// queue order is compared relative to each queue's head, completion
// times relative to each machine's current cycle, and statistics are
// excluded; la and lb are the machines' LSQs, against which each
// entry's LSQSeq normalises. Resident entries' program sequence numbers
// are excluded too — a resident entry's Seq has no further behavioral
// use (its skip decision was taken at enqueue); callers guard the
// partial-re-execution case where future enqueues make absolute
// sequence numbers matter.
func (q *Queue) StateConverged(o *Queue, nowQ, nowO uint64, la, lb *ruu.LSQ) bool {
	if q.highWater != o.highWater || q.every != o.every || q.reso != o.reso {
		return false
	}
	if q.live != o.live {
		return false
	}
	return ring.Equal(&q.Ring, &o.Ring, func(ea, eb *Entry) bool {
		if ea.Trace != eb.Trace {
			return false
		}
		if ea.ResultP != eb.ResultP || ea.NextPCP != eb.NextPCP ||
			ea.AddrP != eb.AddrP || ea.StoreValueP != eb.StoreValueP {
			return false
		}
		if ea.FaultBit != eb.FaultBit {
			return false
		}
		if la.NormSeq(ea.LSQSeq) != lb.NormSeq(eb.LSQSeq) {
			return false
		}
		if ea.Dispatched != eb.Dispatched || ea.Issued != eb.Issued || ea.Done != eb.Done ||
			ea.Verified != eb.Verified || ea.Mismatch != eb.Mismatch || ea.Skipped != eb.Skipped {
			return false
		}
		if ring.RelTime(ea.DoneAt, nowQ) != ring.RelTime(eb.DoneAt, nowO) {
			return false
		}
		if ea.RFaultMask != eb.RFaultMask || ea.OperandAMask != eb.OperandAMask ||
			ea.OperandBMask != eb.OperandBMask || ea.CompIgnore != eb.CompIgnore {
			return false
		}
		return true
	})
}

// Every returns the partial-re-execution stride (1 = every instruction
// is re-executed).
func (q *Queue) Every() int { return q.every }

// Extrapolate advances the per-cycle counters as if the machine
// repeated its last period n more times: prev is the queue one period
// ago, and each counter grows by n times its growth since. Used by the
// hang fast-forward, where the repeated period's deltas are provably
// constant.
func (q *Queue) Extrapolate(prev *Queue, n uint64) {
	q.occSum += (q.occSum - prev.occSum) * n
	p := &prev.stats
	q.stats.Enqueued += (q.stats.Enqueued - p.Enqueued) * n
	q.stats.Reexecuted += (q.stats.Reexecuted - p.Reexecuted) * n
	q.stats.Verified += (q.stats.Verified - p.Verified) * n
	q.stats.Mismatches += (q.stats.Mismatches - p.Mismatches) * n
	q.stats.Skipped += (q.stats.Skipped - p.Skipped) * n
	q.stats.FullStalls += (q.stats.FullStalls - p.FullStalls) * n
	q.stats.PriorityCycles += (q.stats.PriorityCycles - p.PriorityCycles) * n
}
