package ruu

import "reese/internal/ring"

// Convergence comparison for checkpoint/fork fault replay: two machines
// whose windows match under this comparison schedule, issue, and retire
// identically from here on, even when their absolute sequence numbers
// and cycle counts differ (a recovered trial replays instructions, so
// its counters run ahead of the golden run's).
//
// The normalization rules:
//   - sequence references compare relative to each queue's own head
//     (ring.NormSeq); a reference outside the resident window is
//     behaviorally equivalent to "no producer" (depReady treats both as
//     available) and maps to one sentinel;
//   - absolute times compare relative to each machine's own current
//     cycle (ring.RelTime);
//   - pure statistics (how a value came to be, not what it will do) are
//     excluded.

// Converged reports whether the (RUU, LSQ) pair of machine A matches
// machine B's under sequence and time normalization. nowA/nowB are the
// machines' current cycles. FUKind/FUUnit are excluded — which unit ran
// a completed instruction has no future effect unless a stuck-unit
// fault is installed, which callers must rule out separately.
func Converged(a, b *RUU, la, lb *LSQ, nowA, nowB uint64) bool {
	if !ring.Equal(&a.Ring, &b.Ring, func(ea, eb *Entry) bool {
		if ea.Trace != eb.Trace {
			return false
		}
		if a.NormSeq(ea.Dep1) != b.NormSeq(eb.Dep1) || a.NormSeq(ea.Dep2) != b.NormSeq(eb.Dep2) {
			return false
		}
		if ea.Issued != eb.Issued || ea.Completed != eb.Completed {
			return false
		}
		if ring.RelTime(ea.DoneAt, nowA) != ring.RelTime(eb.DoneAt, nowB) {
			return false
		}
		if ea.Mispredicted != eb.Mispredicted || ea.BpHistory != eb.BpHistory {
			return false
		}
		if la.NormSeq(ea.LSQSeq) != lb.NormSeq(eb.LSQSeq) {
			return false
		}
		if ea.Dup != eb.Dup || ea.Bogus != eb.Bogus {
			return false
		}
		if ea.Dup && a.NormSeq(ea.PairSeq) != b.NormSeq(eb.PairSeq) {
			return false
		}
		if ea.destIdx != eb.destIdx || a.NormSeq(ea.prevProducer) != b.NormSeq(eb.prevProducer) {
			return false
		}
		if ea.ResultP != eb.ResultP || ea.NextPCP != eb.NextPCP ||
			ea.AddrP != eb.AddrP || ea.StoreValueP != eb.StoreValueP {
			return false
		}
		// An in-flight latched fault must match (a golden snapshot never
		// carries one, so a still-corrupted trial can never splice).
		if ea.FaultBit != eb.FaultBit {
			return false
		}
		return true
	}) {
		return false
	}
	for i := range a.producer {
		if a.NormSeq(a.producer[i]) != b.NormSeq(b.producer[i]) {
			return false
		}
	}
	return ring.Equal(&la.Ring, &lb.Ring, func(ea, eb *LSQEntry) bool {
		if ea.IsStore != eb.IsStore || ea.Addr != eb.Addr || ea.Width != eb.Width ||
			ea.Issued != eb.Issued || ea.Forwarded != eb.Forwarded {
			return false
		}
		if a.NormSeq(ea.Seq) != b.NormSeq(eb.Seq) {
			return false
		}
		return true
	})
}
