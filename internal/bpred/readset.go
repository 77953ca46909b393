package bpred

import "math/bits"

// Bounded-future state comparison for checkpoint/fork fault replay.
//
// After a REESE recovery the replayed branches retrain the pattern
// tables, so a recovered trial's predictor rarely becomes bit-identical
// to the golden run's again — yet almost none of the diverged counters
// are ever consulted afterwards. Exact table equality therefore rejects
// convergence that is behaviorally real. The golden run knows its own
// future: logging which entries its remaining predictions consult lets
// the convergence test compare exactly those entries and ignore the
// rest.
//
// Soundness: if every table entry the golden suffix reads for a
// prediction is equal at the boundary (and history, configuration and
// all other machine state match exactly), both machines predict
// identically, hence fetch identical streams, resolve identically, and
// train the same entries in the same directions — so compared entries
// stay equal up to each later read, by induction. Entries that are only
// ever written (trained) affect nothing but their own value and may
// diverge freely. Reads that feed other state — the combining
// predictor's chooser update consults its components' predictions — go
// through Predict and are logged like any other.

// ReadSet is a bitset over a predictor's pattern-table entries marking
// those consulted by predictions during a stretch of execution.
type ReadSet struct {
	bits []uint64
}

// NewReadSet returns an empty set covering n entries.
func NewReadSet(n int) *ReadSet {
	return &ReadSet{bits: make([]uint64, (n+63)/64)}
}

func (r *ReadSet) set(i uint32)      { r.bits[i>>6] |= 1 << (i & 63) }
func (r *ReadSet) get(i uint32) bool { return r.bits[i>>6]&(1<<(i&63)) != 0 }

// OrInto unions this set into dst (same entry count).
func (r *ReadSet) OrInto(dst *ReadSet) {
	for i, w := range r.bits {
		dst.bits[i] |= w
	}
}

// ReadLogger is implemented by predictors that can log which
// pattern-table entries their predictions consult; StateEqual then
// takes such a set to restrict its table comparison. Predictors
// without the capability always compare exactly.
type ReadLogger interface {
	// NumEntries returns the pattern-table size a ReadSet must cover.
	NumEntries() int
	// SetReadLog installs the set Predict marks consulted entries in
	// (nil stops logging).
	SetReadLog(rs *ReadSet)
}

var _ ReadLogger = (*Gshare)(nil)
var _ ReadLogger = (*Bimodal)(nil)

// NumEntries implements ReadLogger.
func (g *Gshare) NumEntries() int { return len(g.table) }

// SetReadLog implements ReadLogger.
func (g *Gshare) SetReadLog(rs *ReadSet) { g.readLog = rs }

// NumEntries implements ReadLogger.
func (b *Bimodal) NumEntries() int { return len(b.table) }

// SetReadLog implements ReadLogger.
func (b *Bimodal) SetReadLog(rs *ReadSet) { b.readLog = rs }

// countersEqualOn reports whether two equal-length tables hold the
// same counters at every entry rs marks, or at every entry when rs is
// nil.
func countersEqualOn(a, b []counter, rs *ReadSet) bool {
	if rs == nil {
		for i, v := range a {
			if b[i] != v {
				return false
			}
		}
		return true
	}
	for wi, w := range rs.bits {
		for ; w != 0; w &= w - 1 {
			i := uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
