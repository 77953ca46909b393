package pipeline

// Convergence detection for checkpoint/fork fault replay (snapshot.go):
// Checkpoint.Converged decides whether a forked trial has returned to
// the golden run's state at a commit boundary (so the rest of the run
// can be spliced from the golden result instead of simulated), and the
// hang fast-forward proves a wedged machine repeats a finite cycle of
// states forever and jumps straight to the watchdog threshold.

import (
	"bytes"

	"reese/internal/bpred"
	"reese/internal/emu"
	"reese/internal/mem"
	"reese/internal/ring"
	"reese/internal/ruu"
)

// SuffixReads records what a stretch of execution observes of the
// machine's history-dependent tables, so that convergence can ignore
// state nothing will ever read again: the branch-predictor
// pattern-table entries its predictions consult (bpred.ReadSet; nil
// when the predictor cannot log reads) and, per cache and TLB, the
// sets its accesses miss in and the lines they hit (mem.HierReads).
// The golden instrumented run records one per checkpoint interval and
// unions them backwards, so each checkpoint's set covers everything
// the golden run does from that checkpoint to halt. Soundness
// arguments: bpred/readset.go and mem/readlog.go.
type SuffixReads struct {
	pred *bpred.ReadSet
	hier *mem.HierReads
}

// NewSuffixReads returns an empty read-set sized for this machine.
func (c *CPU) NewSuffixReads() *SuffixReads {
	r := &SuffixReads{hier: c.hier.NewReads()}
	if rl, ok := c.pred.(bpred.ReadLogger); ok {
		r.pred = bpred.NewReadSet(rl.NumEntries())
	}
	return r
}

// SetSuffixReads installs r as the set the machine's predictor, caches
// and TLBs record what they observe in (nil stops logging). r must
// come from this machine's NewSuffixReads. Clones and forks never
// carry the log over.
func (c *CPU) SetSuffixReads(r *SuffixReads) {
	var pred *bpred.ReadSet
	var hier *mem.HierReads
	if r != nil {
		pred, hier = r.pred, r.hier
	}
	if rl, ok := c.pred.(bpred.ReadLogger); ok {
		rl.SetReadLog(pred)
	}
	c.hier.SetReadLog(hier)
}

// OrInto unions r into dst (both from the same machine's
// NewSuffixReads).
func (r *SuffixReads) OrInto(dst *SuffixReads) {
	if r.pred != nil {
		r.pred.OrInto(dst.pred)
	}
	r.hier.OrInto(dst.hier)
}

// hangProbeMin is the commit-drought depth at which periodicity probing
// starts; the probe is refreshed at every power-of-two depth after it,
// so a loop of period p is caught once the probe is at least p cycles
// old (Brent's cycle-finding). Real stalls (a full window behind an L2
// miss) resolve in hundreds of cycles, so probing from 1024 keeps the
// clone and compare cost off every path that will ever commit again.
const hangProbeMin = 1024

// oracleEqual compares the oracles' scalar architectural state exactly
// (memory is the caller's job — trial memory is compared page-wise
// against the golden boundary image by the campaign, and the hang probe
// needs no memory check because an equal instruction count means the
// oracle — the only memory writer — did not step). The store digest is
// required equal, not folded: an oracle whose store history diverged
// and reconverged is vanishingly rare and simply falls back to full
// simulation.
func oracleEqual(a, b *emu.Machine) bool {
	if a.PC() != b.PC() || a.InstCount() != b.InstCount() || a.Halted() != b.Halted() {
		return false
	}
	if a.RegFile() != b.RegFile() || a.FRegFile() != b.FRegFile() {
		return false
	}
	if a.StoreHash() != b.StoreHash() || a.StoreCount() != b.StoreCount() {
		return false
	}
	return bytes.Equal(a.Output(), b.Output())
}

// convergedAt reports whether this machine's microarchitectural and
// oracle state matches g's under sequence/time normalization — i.e.
// whether both machines provably behave identically from their
// respective "now" onward. Shadow commit state (registers, store
// digest) is deliberately excluded: it is output-only, and splicing
// folds it separately. Statistics counters are excluded likewise, and
// so is memory, which callers must establish separately.
//
// droughtDelta is an expected commit-drought skew: c's distance into
// its current no-commit stretch must exceed g's by exactly that much.
// Boundary splicing uses 0 (both machines must hang at the same
// relative time, or not at all); the hang probe uses the candidate
// period p, because it compares a machine against its own state p
// cycles earlier, mid-drought.
//
// reads, when non-nil, is what g's future is known to observe (the
// golden suffix's SuffixReads), and bounds the predictor, cache and
// TLB comparisons to it. Recovery replay retrains pattern tables and
// refills or reorders cache sets, so exact equality would reject most
// trials over state that is never read again. A nil set — the hang
// probe's, whose future is unknown — compares every entry and every
// set.
func (c *CPU) convergedAt(g *CPU, droughtDelta uint64, reads *SuffixReads) bool {
	// A stuck-unit fault makes past unit assignments behaviorally
	// relevant (they are excluded from the entry comparison), so refuse
	// outright.
	if c.stuck != nil || g.stuck != nil {
		return false
	}
	if c.hangLimit != g.hangLimit {
		return false
	}
	if c.committed != g.committed || c.done != g.done || c.permError != g.permError ||
		c.hanged != g.hanged || c.oracleDone != g.oracleDone {
		return false
	}
	// Watchdog window: the distance into the current commit drought must
	// match (up to the caller's expected skew) or the two machines hang
	// at different relative times.
	if c.lastCommitted != g.lastCommitted ||
		c.cycle-c.lastCommitCycle != g.cycle-g.lastCommitCycle+droughtDelta {
		return false
	}
	// Front end.
	if c.fetchStalled != g.fetchStalled ||
		ring.RelTime(c.fetchReadyAt, c.cycle) != ring.RelTime(g.fetchReadyAt, g.cycle) {
		return false
	}
	if c.wrongPath != g.wrongPath {
		return false
	}
	if c.wrongPath {
		if c.wpPC != g.wpPC || c.wpHistSnap != g.wpHistSnap || c.wpMarked != g.wpMarked {
			return false
		}
		if c.wpMarked && c.lsq.NormSeq(c.wpLsqMark) != g.lsq.NormSeq(g.wpLsqMark) {
			return false
		}
	}
	if c.hasPending != g.hasPending || (c.hasPending && c.pending != g.pending) {
		return false
	}
	if c.hasWPPending != g.hasWPPending || (c.hasWPPending && c.wpPending != g.wpPending) {
		return false
	}
	// fetchedAt is observability backdating only, always in the past: it
	// normalizes to zero on both sides.
	if !ring.Equal(&c.fetchQ, &g.fetchQ, func(a, b *fetchEntry) bool {
		if a.tr != b.tr || a.mispredicted != b.mispredicted ||
			a.histSnap != b.histSnap || a.bogus != b.bogus {
			return false
		}
		return true
	}) {
		return false
	}
	if len(c.replayQ)-c.replayHead != len(g.replayQ)-g.replayHead {
		return false
	}
	for i := 0; i < len(c.replayQ)-c.replayHead; i++ {
		if c.replayQ[c.replayHead+i] != g.replayQ[g.replayHead+i] {
			return false
		}
	}
	// Oracle plane.
	if !oracleEqual(c.oracle, g.oracle) {
		return false
	}
	// Predictors and timing structures.
	var predReads *bpred.ReadSet
	var hierReads *mem.HierReads
	if reads != nil {
		predReads, hierReads = reads.pred, reads.hier
	}
	if !c.pred.StateEqual(g.pred, predReads) {
		return false
	}
	if !c.btb.StateEqualRanked(g.btb) || !c.ras.StateEqual(g.ras) {
		return false
	}
	if !c.hier.StateEqualOn(g.hier, hierReads) {
		return false
	}
	if !c.pool.StateEqualAt(g.pool, c.cycle, g.cycle) {
		return false
	}
	// Window state.
	if !ruu.Converged(&c.ruu, &g.ruu, &c.lsq, &g.lsq, c.cycle, g.cycle) {
		return false
	}
	return c.scheme.converged(g.scheme, c, g)
}

// grow advances accumulator v by k periods of its growth since prev
// (the hang fast-forward's extrapolation).
func grow(v *uint64, prev, k uint64) { *v += (*v - prev) * k }

// tryHangFastForward checks whether the machine has become periodic —
// behaviorally identical to the probe snapshot g taken p = c.cycle -
// g.cycle cycles earlier in the same commit drought — and if so jumps
// the clock to the exact cycle at which the no-commit watchdog fires.
// Sound by induction: a deterministic machine whose complete behavioral
// state repeats after p cycles repeats it forever, so it can never
// commit again and the watchdog verdict is already decided.
//
// Two hang shapes occur in practice: a truly wedged machine (fetch PC
// off the text segment, oracle stream exhausted) reaches a period-1
// fixed point, while a REESE detection/recovery livelock — recovery
// restores clean state, replay re-derives the corruption, detection
// fires again — cycles with the period of the whole recovery loop.
// Holding one probe and comparing every subsequent cycle catches any
// period up to the probe's age (Brent's cycle-finding).
//
// Per-cycle accumulators (stall ledger, cache/FU stats, fault and
// recovery counters, latency histogram) are extrapolated over the k =
// floor((target-now)/p) whole periods that fit before the watchdog;
// the final sub-period tail (< p cycles) is attributed as if the loop
// stopped at its last whole period. The watchdog cycle count itself,
// the frozen commit state, and the hang verdict are exact.
func (c *CPU) tryHangFastForward(g *CPU) bool {
	if c.hanged || c.done || c.permError || c.committed != g.committed {
		return false
	}
	p := c.cycle - g.cycle
	if p == 0 {
		return false
	}
	// Detection bookkeeping that is behavioral (feeds recovery
	// decisions) must match at the same phase of the loop.
	if c.lastBadLive != g.lastBadLive || c.lastBadPC != g.lastBadPC {
		return false
	}
	if !c.convergedAt(g, p, nil) {
		return false
	}
	target := c.lastCommitCycle + c.hangLimit
	if target <= c.cycle {
		return false
	}
	k := (target - c.cycle) / p
	if k == 0 {
		return false
	}

	// Extrapolate every accumulator that feeds Result and can advance
	// during a wedged cycle: g holds them one period ago.
	grow(&c.fetchICacheStallCycles, g.fetchICacheStallCycles, k)
	grow(&c.fetchBranchStallCycles, g.fetchBranchStallCycles, k)
	grow(&c.dispatchRUUFull, g.dispatchRUUFull, k)
	grow(&c.dispatchLSQFull, g.dispatchLSQFull, k)
	grow(&c.branches, g.branches, k)
	grow(&c.mispredicts, g.mispredicts, k)
	grow(&c.wpFetched, g.wpFetched, k)
	grow(&c.wpSquashed, g.wpSquashed, k)
	grow(&c.injected, g.injected, k)
	grow(&c.detected, g.detected, k)
	grow(&c.silent, g.silent, k)
	grow(&c.recoveries, g.recoveries, k)
	c.detectLat.ExtrapolateFrom(g.detectLat, k)
	for s := range c.stalls.Used {
		grow(&c.stalls.Used[s], g.stalls.Used[s], k)
		for cause := range c.stalls.Stalls[s] {
			grow(&c.stalls.Stalls[s][cause], g.stalls.Stalls[s][cause], k)
		}
	}
	c.pool.ExtrapolateStats(g.pool.Stats(), k)
	c.hier.L1I.ExtrapolateStats(g.hier.L1I.Stats(), k)
	c.hier.L1D.ExtrapolateStats(g.hier.L1D.Stats(), k)
	c.hier.L2.ExtrapolateStats(g.hier.L2.Stats(), k)
	c.scheme.extrapolate(g.scheme, k)
	c.hangPeriod = p
	c.cycle = target
	return true
}
