package pipeline

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/isa"
	"reese/internal/obs"
	"reese/internal/program"
	"reese/internal/ruu"
)

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

// nextTrace produces the next instruction on the (possibly replayed)
// program path, or nil when the oracle has halted and no replays remain.
// The returned pointer aliases c.trScratch and is only valid until the
// next call.
func (c *CPU) nextTrace() *emu.Trace {
	// Replayed traces are older than a pushed-back pending trace, so
	// they must drain first (only fault recovery populates replayQ).
	if c.replayHead < len(c.replayQ) {
		c.trScratch = c.replayQ[c.replayHead]
		c.replayHead++
		if c.replayHead == len(c.replayQ) {
			c.replayQ = c.replayQ[:0]
			c.replayHead = 0
		}
		return &c.trScratch
	}
	if c.hasPending {
		c.trScratch = c.pending
		c.hasPending = false
		return &c.trScratch
	}
	if c.oracleDone {
		return nil
	}
	if c.sites != nil && c.sites.OracleStep(c.oracle.InstCount(), c.committed, c.oracle, c.hier) {
		// A fault outside the sphere of replication fired: a corrupted
		// register, fetch PC or memory word in the oracle, or a perturbed
		// cache line or TLB entry. From here the machine executes the
		// corrupted state — both streams, so the comparator sees nothing.
		c.noteOracleInjection()
	}
	tr, err := c.oracle.Step()
	if err != nil {
		// Off-the-end fetch or a memory fault in the workload itself:
		// treat as end of stream. Workloads in this repo always halt.
		c.oracleDone = true
		return nil
	}
	if tr.Halt {
		c.oracleDone = true
	}
	c.trScratch = tr
	return &c.trScratch
}

// fetch brings up to Width instructions into the fetch queue. It
// normally follows the oracle path; a mispredicted control transfer
// either stalls fetch until resolution (the default approximation) or,
// with config.ModelWrongPath, switches fetch onto the predicted (wrong)
// path until the branch resolves and the tail is squashed.
func (c *CPU) fetch() {
	if c.fetchStalled {
		c.fetchBranchStallCycles++
		return
	}
	if c.cycle < c.fetchReadyAt {
		c.fetchICacheStallCycles++
		return
	}
	var lastBlock uint32
	haveBlock := false
	blockMask := ^(c.cfg.Memory.L1I.BlockBytes - 1)
	for n := 0; n < c.cfg.Width && !c.fetchQ.Full(); n++ {
		var tr *emu.Trace
		if c.wrongPath {
			if c.hasWPPending {
				c.wpScratch = c.wpPending
				c.hasWPPending = false
				tr = &c.wpScratch
			} else {
				tr = c.wrongPathTrace()
			}
			if tr == nil {
				// Wrong path ran off decodable text: wait for the
				// branch to resolve.
				c.fetchBranchStallCycles++
				return
			}
		} else {
			tr = c.nextTrace()
		}
		if tr == nil {
			return
		}
		// Charge the I-cache once per block touched; a miss delivers
		// nothing this cycle — the instruction waits for the line.
		block := tr.PC & blockMask
		if !haveBlock || block != lastBlock {
			lat := c.hier.FetchLatency(tr.PC)
			lastBlock, haveBlock = block, true
			if lat > c.cfg.Memory.L1I.HitLatency {
				c.fetchReadyAt = c.cycle + uint64(lat)
				if c.wrongPath {
					c.wpPending = *tr
					c.hasWPPending = true
				} else {
					c.pending = *tr
					c.hasPending = true
				}
				return
			}
		}
		fe := c.fetchQ.Push(fetchEntry{tr: *tr, bogus: c.wrongPath, fetchedAt: c.cycle})
		c.traceEvent(obs.EvFetch, tr, "")
		if c.wrongPath {
			c.wpFetched++
			// Wrong-path control flow already chose its own next PC in
			// wrongPathTrace; taken transfers still break the group.
			if tr.Inst.Op.IsControl() && tr.NextPC != tr.PC+isa.WordBytes {
				return
			}
			continue
		}
		if tr.Halt {
			return
		}
		if tr.Inst.Op.IsControl() {
			c.branches++
			if c.predictAndMaybeStall(fe) {
				if fe.mispredicted {
					detail := "fetch stalled until resolution"
					if c.cfg.ModelWrongPath {
						detail = "fetching down the wrong path"
					}
					c.event(obs.EvMispredict, 0, tr, detail, 0, -1)
				}
				return
			}
		}
	}
}

// wrongPathTrace decodes the next wrong-path instruction at wpPC and
// predicts its successor. The pseudo-trace has no meaningful operand
// values — wrong-path instructions only consume resources. The returned
// pointer aliases c.wpScratch and is only valid until the next call.
func (c *CPU) wrongPathTrace() *emu.Trace {
	in, ok := c.dec.At(c.wpPC)
	if !ok {
		return nil
	}
	c.wpScratch = emu.Trace{PC: c.wpPC, Inst: in, NextPC: c.wpPC + isa.WordBytes}
	tr := &c.wpScratch
	// Wrong-path loads/stores get a placeholder address inside the data
	// segment so disambiguation logic sees something sane.
	if in.Op.IsMem() {
		tr.Addr = program.DataBase + uint32(in.Imm)&0xfff&^3
		tr.MemWidth = isa.MemWidth(in.Op)
	}
	op := in.Op
	pc := c.wpPC
	switch {
	case op == isa.OpHalt:
		// Treat as a fetch stop; the path parks here.
		c.wpPC = pc
		return tr
	case op.IsBranch():
		if c.pred.Predict(pc) {
			tr.NextPC = c.btbTarget(pc, tr.NextPC)
		}
		// Speculative history shifts on the wrong path too; the squash
		// restores the snapshot.
		c.pred.ShiftHistory(tr.NextPC != pc+isa.WordBytes)
	case op == isa.OpJ || op == isa.OpJal:
		tr.NextPC = in.BranchTarget(pc)
	case op == isa.OpJr || op == isa.OpJalr:
		if op == isa.OpJr && in.Rs1 == isa.RegRA {
			if tgt, ok := c.ras.Pop(); ok {
				tr.NextPC = tgt
			}
		} else if tgt, ok := c.btb.Lookup(pc); ok {
			tr.NextPC = tgt
		}
	}
	c.wpPC = tr.NextPC
	return tr
}

// btbTarget is the BTB's predicted target for pc, or fall when it has
// none.
func (c *CPU) btbTarget(pc, fall uint32) uint32 {
	if tgt, ok := c.btb.Lookup(pc); ok {
		return tgt
	}
	return fall
}

// predictAndMaybeStall runs the front-end predictors for a control
// instruction, marks mispredictions, and reports whether fetch must stop
// this cycle (taken transfer or misprediction).
func (c *CPU) predictAndMaybeStall(fe *fetchEntry) (stop bool) {
	tr := &fe.tr
	op := tr.Inst.Op
	pc := tr.PC
	fallPC := pc + isa.WordBytes

	var predictedNext uint32
	switch {
	case op.IsBranch():
		// Speculative history update at fetch: a correct prediction
		// shifts the true outcome in; a misprediction stalls fetch, and
		// the redirect repairs the history — with oracle-path fetch the
		// repaired value is simply the true outcome, so shifting it
		// here models both cases. The pre-shift snapshot travels with
		// the branch so resolution trains the entry the prediction
		// actually consulted.
		fe.histSnap = c.pred.Snapshot()
		defer c.pred.ShiftHistory(tr.Taken)
		predictedNext = fallPC
		if c.pred.Predict(pc) {
			// Predicted taken: redirect only if the BTB knows a target.
			predictedNext = c.btbTarget(pc, fallPC)
		}
	case op == isa.OpJ:
		predictedNext = tr.NextPC // direct target, decoded in fetch
	case op == isa.OpJal:
		predictedNext = tr.NextPC
		c.ras.Push(fallPC)
	case op == isa.OpJalr:
		c.ras.Push(fallPC)
		predictedNext = c.btbTarget(pc, fallPC)
	case op == isa.OpJr && tr.Inst.Rs1 == isa.RegRA:
		predictedNext = fallPC
		if tgt, ok := c.ras.Pop(); ok {
			predictedNext = tgt
		}
	case op == isa.OpJr:
		predictedNext = c.btbTarget(pc, fallPC)
	}

	if predictedNext != tr.NextPC {
		fe.mispredicted = true
		c.mispredicts++
		if c.cfg.ModelWrongPath {
			// Fetch continues down the predicted (wrong) path; the
			// squash point is recorded for resolution. The history to
			// restore must already include THIS branch's true outcome
			// (the deferred ShiftHistory below applies it), so fold it
			// in here.
			c.wrongPath = true
			c.wpPC = predictedNext
			c.wpLsqMark = c.lsq.NextSeq()
			c.wpHistSnap = c.pred.Snapshot() << 1
			if tr.Taken {
				c.wpHistSnap |= 1
			}
			return true
		}
		c.fetchStalled = true
		return true
	}
	// Correctly predicted taken transfers still break the fetch group.
	return tr.NextPC != fallPC
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

// dispatch fills up to Width slots per cycle. Each slot takes the next
// decoded P-stream instruction or the scheme's next redundant copy,
// whichever rFirst (the scheme's per-cycle priority, paper §4.3) puts
// first.
func (c *CPU) dispatch(rFirst bool) int {
	moved := 0
	for moved < c.cfg.Width &&
		(rFirst && c.scheme.dispatchR(c) || c.dispatchP() || !rFirst && c.scheme.dispatchR(c)) {
		moved++
	}
	return moved
}

// blockDispatch counts a structural dispatch block and records it for
// the slot-attribution matrix.
func (c *CPU) blockDispatch(cause obs.StallCause) {
	if cause == obs.CauseDispatchLSQFull {
		c.dispatchLSQFull++
	} else {
		c.dispatchRUUFull++
	}
	c.noteDispatchBlock(cause)
}

// noteDispatchBlock records the first structural reason dispatch
// stopped this cycle, for the slot-attribution matrix. The first
// blocker wins: it is what actually ended the dispatch group.
func (c *CPU) noteDispatchBlock(cause obs.StallCause) {
	if c.dispCause == obs.CauseNone {
		c.dispCause = cause
	}
}

// dispatchCause resolves where this cycle's unused dispatch slots went:
// a recorded structural block, otherwise an empty front end (or the
// post-halt drain).
func (c *CPU) dispatchCause() obs.StallCause {
	if c.dispCause != obs.CauseNone {
		return c.dispCause
	}
	return c.frontEndCause()
}

// frontEndCause charges idle slots to the front end: the post-halt drain
// once nothing is left to fetch or replay, an empty fetch queue before.
func (c *CPU) frontEndCause() obs.StallCause {
	if c.oracleDone && c.fetchQ.Empty() && !c.hasPending && c.replayHead >= len(c.replayQ) {
		return obs.CauseDrain
	}
	return obs.CauseFetchEmpty
}

// dispatchP moves one instruction from the fetch queue into the RUU
// (and LSQ for memory operations), reporting whether it did.
func (c *CPU) dispatchP() bool {
	if c.fetchQ.Empty() {
		return false
	}
	// fe stays valid after the pop below: nothing refills its ring slot
	// before fetch runs.
	fe := c.fetchQ.Head()
	if c.ruu.Full() {
		c.blockDispatch(obs.CauseDispatchRUUFull)
		return false
	}
	if cause := c.scheme.admit(c, fe); cause != obs.CauseNone {
		c.blockDispatch(cause)
		return false
	}
	if fe.bogus && !c.wpMarked {
		// First wrong-path entry reaching dispatch: everything in the
		// LSQ from here on is squashable.
		c.wpLsqMark = c.lsq.NextSeq()
		c.wpMarked = true
	}
	lsqSeq := ruu.NoProducer
	if fe.tr.Inst.Op.IsMem() {
		if c.lsq.Full() {
			c.blockDispatch(obs.CauseDispatchLSQFull)
			return false
		}
		lsqSeq = c.lsq.Dispatch(fe.tr, c.ruu.NextSeq()).MemSeq
	}
	e := c.ruu.Dispatch(fe.tr, lsqSeq)
	e.Mispredicted = fe.mispredicted && !fe.bogus
	e.Bogus = fe.bogus
	e.BpHistory = fe.histSnap
	c.fetchQ.RemoveHead()
	if c.traceW != nil {
		c.traceEvent(obs.EvDispatch, &e.Trace, fmt.Sprintf("seq=%d", e.Seq))
	}
	if c.recorder != nil {
		// The fetch event is backdated to queue entry: its sequence
		// number only exists now.
		c.recordAt(fe.fetchedAt, obs.EvFetch, e.Seq, &e.Trace, 0, -1)
		c.record(obs.EvDispatch, e.Seq, &e.Trace, 0, -1)
	}
	c.scheme.dispatched(c, fe, e)
	return true
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

// issue selects up to IssueWidth ready instructions: P-stream
// instructions first and the scheme's redundant copies in the remaining
// slots, or the other way round when rFirst (paper §4.3).
func (c *CPU) issue(rFirst bool) int {
	budget := c.cfg.IssueWidth
	if rFirst {
		budget = c.scheme.issueR(c, budget)
	}
	c.issueP(&budget)
	if !rFirst {
		budget = c.scheme.issueR(c, budget)
	}
	return c.cfg.IssueWidth - budget
}

// issueCause resolves where this cycle's unused issue slots went. A
// functional-unit shortage outranks operand waits — it is the signal
// REESE's spare elements act on; with neither recorded the window is
// either all in flight (execution latency) or empty (front end).
func (c *CPU) issueCause() obs.StallCause {
	if c.issueNoFU {
		return obs.CauseIssueNoFU
	}
	if c.issueNotReady {
		return obs.CauseIssueWait
	}
	if c.ruu.Len() > 0 || c.scheme.inFlight() > 0 {
		return obs.CauseExecLatency
	}
	return c.frontEndCause()
}

// issueP issues ready P-stream instructions from the RUU, oldest first.
func (c *CPU) issueP(budget *int) {
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if *budget <= 0 {
			return false
		}
		if e.Issued {
			return true
		}
		if !c.ruu.OperandsReady(e, c.cycle) {
			c.issueNotReady = true
			return true
		}
		op := e.Trace.Inst.Op
		load := ruu.LoadFromCache
		if op.IsLoad() && !e.Bogus {
			if load = c.lsq.CheckLoad(e.LSQSeq); load == ruu.LoadBlocked {
				// Waiting for earlier store addresses: a readiness wait,
				// not an FU shortage.
				c.issueNotReady = true
				return true
			}
		}
		kind, unit := fu.KindFor(op.Class()), -1
		if load != ruu.LoadForward {
			var ok bool
			if unit, ok = c.pool.AcquireUnit(kind, c.cycle, op.IssueLatency()); !ok {
				c.issueNoFU = true
				return true
			}
		}
		e.FUKind, e.FUUnit = uint8(kind), unit
		doneAt := c.cycle + 1
		switch {
		case e.Bogus && op.IsMem():
			// Wrong-path memory operations consume a port but bypass
			// the data cache (their addresses are placeholders; real
			// hardware would access speculative state we don't model).
			if e.LSQSeq != ruu.NoProducer && c.lsq.Resident(e.LSQSeq) {
				c.lsq.Get(e.LSQSeq).Issued = true
			}
			doneAt = c.cycle + uint64(c.cfg.Memory.L1D.HitLatency)
		case load == ruu.LoadForward:
			// Store-to-load forwarding inside the LSQ: 1 cycle, no
			// cache port needed. The port fields are still stamped
			// (unit -1) so the recorder lanes stay truthful.
			le := c.lsq.Get(e.LSQSeq)
			le.Issued, le.Forwarded = true, true
		case op.IsLoad():
			doneAt = c.cycle + uint64(c.hier.DataLatency(e.Trace.Addr, false))
			c.lsq.Get(e.LSQSeq).Issued = true
		case op.IsStore():
			// The architectural cache write happens once, on the side
			// the scheme verifies.
			c.scheme.issueStore(c, e)
			c.lsq.Get(e.LSQSeq).Issued = true
		default:
			doneAt = c.cycle + uint64(op.OpLatency())
		}
		c.markIssued(e, doneAt)
		*budget--
		return true
	})
}

func (c *CPU) markIssued(e *ruu.Entry, doneAt uint64) {
	e.Issued = true
	e.IssuedAt = c.cycle
	e.DoneAt = doneAt
	if c.traceW != nil {
		c.traceEvent(obs.EvIssue, &e.Trace, fmt.Sprintf("done@%d", doneAt))
	}
	if c.recorder != nil {
		c.record(obs.EvIssue, e.Seq, &e.Trace, e.FUKind+1, int16(e.FUUnit))
	}
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

// writeback completes executions whose latency has elapsed: P-stream
// completions resolve branches (unblocking fetch on mispredictions) and
// latch results — the point where the fault injector may corrupt them.
// The scheme's comparator then checks what completed.
func (c *CPU) writeback() {
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if !e.Issued || e.Completed || e.DoneAt > c.cycle {
			return true
		}
		e.Completed = true
		c.event(obs.EvWriteback, e.Seq, &e.Trace, "", e.FUKind+1, int16(e.FUUnit))
		if e.Bogus {
			// Wrong-path completions update nothing architectural: no
			// predictor training, no fault injection.
			return true
		}
		op := e.Trace.Inst.Op
		if op.IsControl() && !e.Dup {
			c.resolveControl(e)
		}
		if c.stuck != nil && c.stuck.Hits(e.FUKind, e.FUUnit) {
			// A permanent unit fault corrupts the latched outcome of
			// every computation it performs.
			switch {
			case e.Trace.HasResult:
				e.ResultP ^= c.stuck.Mask()
			case op.IsStore():
				e.StoreValueP ^= c.stuck.Mask()
			}
		}
		if e.Seq >= c.hookHorizon {
			c.hookHorizon = e.Seq + 1
		}
		if inj, ok := c.injector.Decide(e.Seq, e.Trace); ok {
			e.ResultP, e.NextPCP, e.AddrP, e.StoreValueP = fault.Apply(inj, e.Trace)
			e.FaultBit = inj.Bit % 32
			e.FaultCycle = c.cycle
			c.noteInjection()
			if c.traceW != nil {
				c.traceEvent(obs.EvFaultInjected, &e.Trace, fmt.Sprintf("bit %d", e.FaultBit))
			}
			if c.recorder != nil {
				c.record(obs.EvFaultInjected, e.Seq, &e.Trace, 0, -1)
			}
		}
		return true
	})

	c.scheme.verify(c)
}

// resolveControl trains the predictors with the true outcome and, for
// mispredicted transfers, restarts fetch after the redirect penalty.
func (c *CPU) resolveControl(e *ruu.Entry) {
	tr := &e.Trace
	op := tr.Inst.Op
	if op.IsBranch() {
		c.pred.TrainAt(tr.PC, e.BpHistory, tr.Taken)
	}
	if tr.Taken && tr.NextPC != tr.PC+isa.WordBytes {
		c.btb.Insert(tr.PC, tr.NextPC)
	}
	if e.Mispredicted {
		if c.cfg.ModelWrongPath {
			c.squashWrongPath(e)
			return
		}
		c.fetchStalled = false
		resume := c.cycle + 1 + redirectPenalty
		if resume > c.fetchReadyAt {
			c.fetchReadyAt = resume
		}
	}
}

// squashWrongPath removes every wrong-path instruction behind the
// resolved branch and redirects fetch to the correct path. The squashed
// work consumed real bandwidth, window slots, and functional units —
// the cost the stall model approximates with a flat penalty.
func (c *CPU) squashWrongPath(branch *ruu.Entry) {
	cut := c.scheme.squashCut(branch.Seq)
	squashed := c.ruu.NextSeq() - cut - 1
	c.wpSquashed += squashed
	c.ruu.TruncateAfter(cut)
	if c.wpMarked {
		c.lsq.TruncateTo(c.wpLsqMark)
	}
	// Everything still in the fetch queue is bogus (nothing real is
	// fetched after a mispredicted branch).
	c.fetchQ.Flush()
	c.hasWPPending = false
	c.pred.Restore(c.wpHistSnap)
	c.wrongPath = false
	c.wpMarked = false
	resume := c.cycle + 1
	if resume > c.fetchReadyAt {
		c.fetchReadyAt = resume
	}
	if c.traceW != nil {
		fmt.Fprintf(c.traceW, "%8d SQUASH     %d wrong-path instructions behind %#08x\n", c.cycle, squashed, branch.Trace.PC)
	}
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

// commit retires instructions in program order through the scheme,
// returning how many commit slots did work this cycle. When slots go
// unused, the blocking cause is resolved from the machine state the
// moment commit gave up — before writeback and issue mutate it — and
// charged in chargeStalls at the end of the cycle.
func (c *CPU) commit() int {
	used := c.scheme.commit(c)
	switch {
	case used == c.cfg.Width:
		c.commitBlock = obs.CauseNone
	case c.done || c.permError:
		c.commitBlock = obs.CauseDrain
	default:
		c.commitBlock = c.scheme.commitStall(c)
	}
	return used
}

// windowStall names the one thing stopping the RUU head from leaving —
// top-down accounting in the style of the paper's utilization figures.
// An empty machine blames the front end (or the post-halt drain);
// latched is the scheme's charge for a head that finished but could not
// move on.
func (c *CPU) windowStall(latched obs.StallCause) obs.StallCause {
	if c.ruu.Empty() {
		return c.frontEndCause()
	}
	h := c.ruu.Head()
	if !h.Issued {
		if c.ruu.OperandsReady(h, c.cycle) {
			// Ready but never picked: every unit of its class was busy
			// (or, for loads, the LSQ blocked disambiguation).
			return obs.CauseIssueNoFU
		}
		return obs.CauseIssueWait
	}
	if !h.Completed || h.DoneAt > c.cycle {
		return obs.CauseExecLatency
	}
	return latched
}

// retire commits one instruction architecturally. resultP, addrP and
// storeValueP are the latched values that actually commit (possibly
// corrupted by an undetected fault); they feed the shadow register file
// and store hash behind CommitDigest.
func (c *CPU) retire(tr emu.Trace, isMem, hadFault bool, resultP, addrP, storeValueP uint32) {
	if c.commitWatch != nil {
		// The commit index before increment is the instruction's global
		// program-order position — the lockstep alignment key.
		c.commitWatch(c.committed, c.cycle, tr, resultP, addrP, storeValueP)
	}
	c.committed++
	if r, fp, ok := tr.DestReg(); ok {
		if fp {
			c.shadowFRegs[r] = resultP
		} else if r != isa.RegZero {
			c.shadowRegs[r] = resultP
		}
	}
	if tr.Inst.Op.IsStore() {
		c.storeHash = emu.MixStore(c.storeHash, addrP, tr.MemWidth, storeValueP)
		c.storeCount++
	}
	op := tr.Inst.Op
	switch {
	case op.IsControl():
		c.classCommits[4]++
	case op.IsFP() && !op.IsMem():
		c.classCommits[5]++
	case op.IsLoad():
		c.classCommits[2]++
	case op.IsStore():
		c.classCommits[3]++
	case op.Class() == isa.ClassIntMult:
		c.classCommits[1]++
	default:
		c.classCommits[0]++
	}
	if isMem {
		c.lsq.RemoveHead()
	}
	if hadFault {
		// A corrupted instruction retired without detection. On the
		// baseline this is the expected silent data corruption; on
		// REESE it can only be a fault landing where the comparator has
		// no coverage (e.g. a skipped instruction under partial
		// re-execution).
		c.silent++
	} else if c.lastBadLive && tr.PC == c.lastBadPC {
		// The previously faulting instruction retired cleanly: the
		// transient is gone.
		c.lastBadLive = false
	}
	if tr.Halt {
		c.done = true
	}
}

// ---------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------

// noteInjection accounts a fault the injector just fired.
func (c *CPU) noteInjection() {
	c.injected++
	if c.faultCycle == 0 {
		c.faultCycle = c.cycle
	}
}

// noteOracleInjection accounts a fault fired into the oracle or the
// memory hierarchy, which the recorder marks at the oracle's PC.
func (c *CPU) noteOracleInjection() {
	c.noteInjection()
	if c.recorder != nil {
		inj := emu.Trace{PC: c.oracle.PC()}
		c.record(obs.EvFaultInjected, c.oracle.InstCount(), &inj, 0, 0)
	}
}

// onMismatch handles a comparator hit on instruction seq at pc: account
// for the detection (with its latency when the instruction carries a
// fault planted at faultCycle), then flush the pipeline and replay from
// the faulting instruction (§4.3). A second consecutive mismatch at the
// same PC is treated as a permanent error and stops the machine.
func (c *CPU) onMismatch(seq uint64, pc uint32, faulted bool, faultCycle uint64) {
	c.detected++
	if faulted {
		c.detectLat.Add(c.cycle - faultCycle)
	}
	if c.lastBadLive && pc == c.lastBadPC {
		c.permError = true
		return
	}
	c.lastBadPC = pc
	c.lastBadLive = true
	c.recover(seq)
}

// recover force-retires everything older than faultSeq, then flushes all
// in-flight state and queues the flushed instructions (from faultSeq on)
// for re-fetch.
func (c *CPU) recover(faultSeq uint64) {
	c.recoveries++
	if c.traceW != nil {
		fmt.Fprintf(c.traceW, "%8d RECOVERY   flush + replay from seq %d\n", c.cycle, faultSeq)
	}
	if c.recorder != nil {
		tr := emu.Trace{PC: c.lastBadPC}
		c.record(obs.EvRecovery, faultSeq, &tr, 0, -1)
	}

	// Rebuild the replay queue into the spare buffer, then swap the two
	// so the next recovery reuses this one's backing array: after the
	// first couple of recoveries the rebuild allocates nothing.
	replay := c.scheme.drain(c, faultSeq, c.replayScratch[:0])
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if !e.Bogus && !e.Dup {
			replay = append(replay, e.Trace)
		}
		return true
	})
	c.fetchQ.Scan(func(fe *fetchEntry) bool {
		// Wrong-path entries are squashed work, not program state; they
		// must never re-enter the real instruction stream.
		if !fe.bogus {
			replay = append(replay, fe.tr)
		}
		return true
	})
	replay = append(replay, c.replayQ[c.replayHead:]...)

	c.replayScratch = c.replayQ[:0]
	c.replayQ = replay
	c.replayHead = 0
	c.ruu.Flush()
	c.lsq.Flush()
	c.fetchQ.Flush()
	c.pool.Reset()
	c.fetchStalled = false
	c.wrongPath = false
	c.wpMarked = false
	c.hasWPPending = false
	c.fetchReadyAt = c.cycle + 1 + recoveryPenalty
}
