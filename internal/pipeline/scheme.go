package pipeline

// The redundancy scheme is the one seam between the cycle model and the
// way (if any) its work is checked. Every stage calls the installed
// scheme at fixed points and never asks which scheme it is; the three
// implementations — the unchecked baseline, REESE's R-stream Queue
// (scheme_rsq.go) and duplicate-at-dispatch (scheme_dup.go) — own all
// scheme-specific state and logic. DESIGN.md §7 tabulates each scheme's
// behaviour at each hook.

import (
	"fmt"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/obs"
	"reese/internal/reese"
	"reese/internal/ruu"
)

// scheme is a machine's redundancy organisation.
type scheme interface {
	// cycle runs between writeback and issue: it samples per-cycle
	// statistics and reports whether redundant work takes dispatch and
	// issue priority this cycle.
	cycle() (redundantFirst bool)
	// admit returns what blocks dispatching fe (obs.CauseNone: nothing);
	// dispatched follows its dispatch as RUU entry e.
	admit(c *CPU, fe *fetchEntry) obs.StallCause
	dispatched(c *CPU, fe *fetchEntry, e *ruu.Entry)
	// dispatchR and issueR fill idle slots with redundant copies, which
	// hold inFlight window slots; issueR returns the budget left.
	dispatchR(c *CPU) bool
	issueR(c *CPU, budget int) int
	inFlight() int
	// issueStore decides whether P-stream store e's issue is the
	// architectural cache write.
	issueStore(c *CPU, e *ruu.Entry)
	// verify is the comparator between writeback and commit.
	verify(c *CPU)
	// commit retires in program order, returning the slots used;
	// commitStall names what stopped it on a live machine.
	commit(c *CPU) int
	commitStall(c *CPU) obs.StallCause
	// squashCut is the last sequence number a wrong-path squash behind
	// the branch at seq keeps.
	squashCut(seq uint64) uint64
	// drain empties the scheme's queue at recovery, appending copies
	// from faultSeq on to replay and retiring older ones.
	drain(c *CPU, faultSeq uint64, replay []emu.Trace) []emu.Trace
	// clone deep-copies the scheme, reusing dst's allocations when dst
	// is the same kind; it never shares state with the receiver.
	clone(dst scheme) scheme
	// converged compares c's scheme state (the receiver) with g's (o);
	// extrapolate advances per-cycle counters by k periods of their
	// growth since prev; report fills the scheme's Result fields.
	// (Values, not pointers, cross this interface where the callee
	// would make a stack variable escape to the heap.)
	converged(o scheme, c, g *CPU) bool
	extrapolate(prev scheme, k uint64)
	report(res Result, cycles uint64) Result
}

// newScheme builds the redundancy scheme cfg selects.
func newScheme(cfg config.ReeseConfig) (scheme, error) {
	switch {
	case !cfg.Enabled:
		return baseline{}, nil
	case cfg.Mode == config.ModeDupDispatch:
		return dupScheme{}, nil
	}
	q, err := reese.New(cfg.RSQSize, cfg.HighWater, cfg.ReexecuteEvery, cfg.RESO)
	if err != nil {
		return nil, err
	}
	return rsqScheme{q}, nil
}

// baseline is the unchecked machine: instructions retire straight from
// the RUU head and a store writes the data cache when it issues.
type baseline struct{}

func (baseline) cycle() bool                                       { return false }
func (baseline) admit(*CPU, *fetchEntry) obs.StallCause            { return obs.CauseNone }
func (baseline) dispatched(*CPU, *fetchEntry, *ruu.Entry)          {}
func (baseline) dispatchR(*CPU) bool                               { return false }
func (baseline) issueR(_ *CPU, budget int) int                     { return budget }
func (baseline) inFlight() int                                     { return 0 }
func (baseline) issueStore(c *CPU, e *ruu.Entry)                   { c.hier.DataLatency(e.Trace.Addr, true) }
func (baseline) verify(*CPU)                                       {}
func (baseline) commitStall(c *CPU) obs.StallCause                 { return c.windowStall(obs.CauseExecLatency) }
func (baseline) squashCut(seq uint64) uint64                       { return seq }
func (baseline) drain(_ *CPU, _ uint64, r []emu.Trace) []emu.Trace { return r }
func (s baseline) clone(scheme) scheme                             { return s }
func (s baseline) converged(o scheme, _, _ *CPU) bool              { return o == scheme(s) }
func (baseline) extrapolate(scheme, uint64)                        {}
func (baseline) report(res Result, _ uint64) Result                { return res }

func (baseline) commit(c *CPU) int {
	used := 0
	for n := 0; n < c.cfg.Width && !c.ruu.Empty(); n++ {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			break
		}
		e := c.ruu.RemoveHead()
		if e.Bogus {
			// A wrong-path instruction can never reach commit: its
			// mispredicted branch resolves (and squashes it) strictly
			// before leaving the window.
			panic(fmt.Sprintf("pipeline: bogus instruction reached commit: seq=%d pc=%#x %s", e.Seq, e.Trace.PC, e.Trace.Inst))
		}
		used++
		c.event(obs.EvCommit, e.Seq, &e.Trace, "", 0, -1)
		c.retire(e.Trace, e.LSQSeq != ruu.NoProducer, e.HasFault(), e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			break
		}
	}
	return used
}
