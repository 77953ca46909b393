// Package reese implements the paper's contribution: the R-stream Queue
// (RSQ) and the redundant-execution machinery around it.
//
// A P-stream instruction that is ready to commit enters the RSQ at the
// tail carrying its opcode, operand values, and P-stream result. Because
// the operands are carried along, R-stream instructions have no data
// dependencies, and because the outcome of every branch is already
// known, they have no control dependencies either (paper §4.4): any
// R-stream instruction at or behind the issue pointer may issue to any
// idle functional unit. When the re-execution finishes, its result is
// compared against the stored P result; on a match the instruction is
// verified and may commit architecturally from the head of the queue, in
// program order. On a mismatch a soft error has been detected.
//
// The scheduler normally gives P-stream instructions priority and lets
// R-stream instructions soak up idle capacity; when RSQ occupancy
// crosses a high-water mark, R-stream instructions take priority so the
// queue drains (the paper's counter-based overflow avoidance, §4.3).
package reese

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/isa"
	"reese/internal/ring"
)

// Entry is one instruction awaiting or undergoing redundant execution.
type Entry struct {
	// Seq is the instruction's program-order sequence number.
	Seq uint64
	// Trace is the oracle record of the P-stream execution.
	Trace emu.Trace

	// ResultP is the result latched from the P-stream datapath. A fault
	// injector may have corrupted it relative to Trace.
	ResultP uint32
	// NextPCP, AddrP and StoreValueP are the latched control/memory
	// outcomes of the P-stream execution (corruptible likewise).
	NextPCP     uint32
	AddrP       uint32
	StoreValueP uint32
	// FaultBit/FaultCycle record an injected fault (255 = none).
	FaultBit   uint8
	FaultCycle uint64

	// LSQSeq links memory instructions to their load/store queue entry.
	LSQSeq uint64

	// QSeq is the entry's R-stream-Queue order number (assigned at
	// enqueue; the slot key).
	QSeq uint64
	// EnqueuedAt is the cycle the entry entered the queue.
	EnqueuedAt uint64
	// Dispatched is set when the R copy re-enters the pipeline through
	// the dispatch stage (paper §4.3: the scheduler chooses between a
	// decoded P instruction and the head of the R-stream Queue). A
	// dispatched, unfinished copy occupies a window slot.
	Dispatched bool
	// Issued/IssuedAt/DoneAt track the re-execution on its functional
	// unit. Done is set when it has completed and compared. RUnit
	// records which unit ran it (-1 = none).
	Issued   bool
	IssuedAt uint64
	DoneAt   uint64
	Done     bool
	RKind    uint8
	RUnit    int
	// Verified means the comparison succeeded; Mismatch means it failed.
	Verified bool
	Mismatch bool
	// Skipped marks instructions exempted by partial re-execution
	// (paper §7); they verify vacuously.
	Skipped bool

	// RFaultMask is the corruption a permanent functional-unit fault
	// applies to the R-stream execution itself (set at R issue when the
	// copy lands on a stuck unit). Under RESO the recomputation runs on
	// shifted operands, so the same stuck bit lands one position lower
	// after unshifting — which is what makes the fault visible.
	RFaultMask uint32

	// OperandAMask/OperandBMask model a transient in the RSQ's operand
	// copies: the recomputation reads the corrupted operand while
	// Trace.A/B (what the P-stream used, and what recovery replays)
	// stay clean. CompIgnore blinds the comparator to those bit lanes —
	// a fault in the checker itself.
	OperandAMask uint32
	OperandBMask uint32
	CompIgnore   uint32
}

// HasFault reports whether a fault was injected into this instruction's
// P-stream outcome.
func (e *Entry) HasFault() bool { return e.FaultBit != 255 }

// Stats counts R-stream activity.
type Stats struct {
	// Enqueued is the number of instructions that entered the RSQ.
	Enqueued uint64
	// Reexecuted is the number of R-stream executions issued.
	Reexecuted uint64
	// Verified is the number of successful comparisons.
	Verified uint64
	// Mismatches is the number of failed comparisons (detected faults).
	Mismatches uint64
	// Skipped counts instructions exempted by partial re-execution.
	Skipped uint64
	// FullStalls counts cycles in which a completed RUU head could not
	// move into the RSQ because it was full.
	FullStalls uint64
	// PriorityCycles counts cycles the high-water mark gave R-stream
	// instructions scheduling priority.
	PriorityCycles uint64
}

// Queue is the R-stream Queue: a FIFO whose entries issue (possibly out
// of order with respect to completion) and retire in order once
// verified. Entries are addressed by their QSeq. A full queue blocks the
// RUU head — the only way REESE inhibits the P stream.
type Queue struct {
	ring.Ring[Entry]

	highWater int
	every     int // re-execute 1 in every N instructions (1 = all)
	reso      bool
	stats     Stats

	// live counts dispatched R copies not yet compared: each holds an
	// execution-window slot. occSum/occMax sample occupancy per cycle.
	live           int
	occSum, occMax uint64
}

// New builds an R-stream Queue.
//
// size is the queue capacity (the paper starts at 32). highWater is the
// occupancy at which R-stream instructions get issue priority; 0 selects
// the default of size-8 (clamped to at least 1). reexecuteEvery enables
// partial re-execution: only one in every N instructions is re-executed
// (0 and 1 both mean every instruction). reso enables recomputation with
// shifted operands (Patel & Fung, the paper's §3 reference [15]): the
// R-stream execution is transformed so a permanent fault in a
// functional unit corrupts the two executions differently, making it
// detectable even when both land on the same unit. RESO itself is
// timing-neutral here (the shift stages are folded into the unit's
// latency).
func New(size, highWater, reexecuteEvery int, reso bool) (*Queue, error) {
	if size < 1 {
		return nil, fmt.Errorf("reese: rsq size %d", size)
	}
	if highWater == 0 {
		highWater = size - 8
		if highWater < 1 {
			highWater = 1
		}
	}
	if highWater < 0 || highWater > size {
		return nil, fmt.Errorf("reese: high-water %d out of [1,%d]", highWater, size)
	}
	if reexecuteEvery < 0 {
		return nil, fmt.Errorf("reese: re-execute every %d", reexecuteEvery)
	}
	if reexecuteEvery == 0 {
		reexecuteEvery = 1
	}
	return &Queue{
		Ring:      ring.Make[Entry](size),
		highWater: highWater,
		every:     reexecuteEvery,
		reso:      reso,
	}, nil
}

// PressureHigh reports whether occupancy has crossed the high-water
// mark, giving R-stream instructions priority this cycle.
func (q *Queue) PressureHigh() bool { return q.Len() >= q.highWater }

// NotePriorityCycle records a cycle during which R-stream priority was
// in force (called once per such cycle by the pipeline).
func (q *Queue) NotePriorityCycle() { q.stats.PriorityCycles++ }

// NoteFullStall records a cycle in which the RUU head was blocked by a
// full RSQ.
func (q *Queue) NoteFullStall() { q.stats.FullStalls++ }

// Enqueue adds an instruction leaving the RUU head. Returns nil if full.
func (q *Queue) Enqueue(e Entry, now uint64) *Entry {
	if q.Full() {
		return nil
	}
	e.QSeq = q.NextSeq()
	e.EnqueuedAt = now
	slot := q.Push(e)
	if q.every > 1 && e.Seq%uint64(q.every) != 0 {
		// Partial re-execution: this instruction is not re-executed and
		// verifies vacuously (coverage is sacrificed, paper §7).
		slot.Skipped = true
		slot.Dispatched = true
		slot.Issued = true
		slot.Done = true
		slot.Verified = true
		q.stats.Skipped++
	}
	q.stats.Enqueued++
	return slot
}

// NextToDispatch returns the oldest entry whose R copy has not yet been
// dispatched back into the pipeline, or nil. The queue is a FIFO: copies
// re-enter in order.
func (q *Queue) NextToDispatch() *Entry {
	for s := q.HeadSeq(); s < q.NextSeq(); s++ {
		e := q.At(s)
		if !e.Dispatched {
			return e
		}
	}
	return nil
}

// MarkDispatched records that e's R copy entered the pipeline.
func (q *Queue) MarkDispatched(e *Entry) {
	e.Dispatched = true
	q.live++
	q.stats.Reexecuted++
}

// MarkIssued records that e's re-execution started at cycle now and
// will finish at done.
func (q *Queue) MarkIssued(e *Entry, now, done uint64) {
	e.Issued = true
	e.IssuedAt = now
	e.DoneAt = done
}

// RetireHead removes the verified head entry.
func (q *Queue) RetireHead() Entry {
	if h := q.Head(); h != nil && !h.Verified {
		panic("reese: RetireHead on unverified entry")
	}
	return q.RemoveHead()
}

// Flush empties the queue (fault recovery clears the RSQ, §4.3).
func (q *Queue) Flush() {
	q.Ring.Flush()
	q.live = 0
}

// InFlight returns the number of dispatched R copies whose comparison
// has not completed.
func (q *Queue) InFlight() int { return q.live }

// Sample records the current occupancy; the pipeline calls it once per
// cycle.
func (q *Queue) Sample() {
	occ := uint64(q.Len())
	q.occSum += occ
	q.occMax = max(q.occMax, occ)
}

// Occupancy returns the sum and peak of the sampled occupancies.
func (q *Queue) Occupancy() (sum, peak uint64) { return q.occSum, q.occMax }

// CloneInto deep-copies the R-stream Queue into dst (allocating when dst
// is nil), reusing dst's slot array when its capacity allows.
func (q *Queue) CloneInto(dst *Queue) *Queue {
	if dst == nil {
		dst = &Queue{}
	}
	r := dst.Ring
	*dst = *q
	r.CopyFrom(&q.Ring)
	dst.Ring = r
	return dst
}

// Stats returns a copy of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Compare re-executes e's operation from its carried operands and
// compares every latched P-stream outcome with the recomputed one. It
// returns true when they all match. This is the comparator between
// writeback and commit (paper §4.3), and the recomputation uses exactly
// the same semantic functions as the P stream, so a mismatch implies a
// fault. A dispatched copy releases its window slot here.
func (q *Queue) Compare(e *Entry) bool {
	if e.Dispatched {
		q.live--
	}
	tr := e.Trace
	op := tr.Inst.Op
	// rMask is how a stuck functional unit corrupted the R execution.
	// Without RESO the stuck bit corrupts the recomputation in the same
	// position as it corrupted the P execution; with RESO the
	// recomputation ran on left-shifted operands, so after the final
	// unshift the corruption lands one bit lower (and bit 0 vanishes).
	rMask := e.RFaultMask
	if q.reso {
		rMask >>= 1
	}
	// The R-stream reads its operands from the RSQ's stored copies; a
	// transient in those slots corrupts the recomputation while the
	// architectural values (and recovery replay) stay clean.
	a := tr.A ^ e.OperandAMask
	b := tr.B ^ e.OperandBMask
	// eq is the comparator: bit lanes in CompIgnore are dead (a fault in
	// the checker itself), so corruption there passes unnoticed.
	eq := func(p, r uint32) bool { return (p^r)&^e.CompIgnore == 0 }
	ok := true
	switch {
	case op == isa.OpHalt || op == isa.OpOut:
		// No result to verify.
	case op.IsLoad():
		// The R-stream load re-reads the cache; memory is unchanged
		// between the two executions (stores drain in order), so the
		// true value is the oracle's. Verify both address and value.
		ok = eq(e.AddrP, isa.EffectiveAddress(a, tr.Inst.Imm)) &&
			eq(e.ResultP, tr.Result^rMask)
	case op.IsStore():
		ok = eq(e.AddrP, isa.EffectiveAddress(a, tr.Inst.Imm)) &&
			eq(e.StoreValueP, b^rMask)
	case op.IsBranch():
		taken := isa.BranchTaken(op, a, b)
		next := tr.PC + isa.WordBytes
		if taken {
			next = tr.Inst.BranchTarget(tr.PC)
		}
		ok = eq(e.NextPCP, next)
	case op.IsJump():
		next := tr.Inst.BranchTarget(tr.PC)
		if op.IsIndirect() {
			next = a
		}
		ok = eq(e.NextPCP, next)
		if op == isa.OpJal || op == isa.OpJalr {
			ok = ok && eq(e.ResultP, tr.PC+isa.WordBytes)
		}
	case op.IsFP():
		ok = eq(e.ResultP, isa.EvalFP(op, a, b)^rMask)
	default:
		ok = eq(e.ResultP, isa.EvalALU(op, a, b, tr.Inst.Imm)^rMask)
	}
	e.Done = true
	if ok {
		e.Verified = true
		q.stats.Verified++
	} else {
		e.Mismatch = true
		q.stats.Mismatches++
	}
	return ok
}
