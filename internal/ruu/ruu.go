// Package ruu implements the Register Update Unit and Load/Store Queue of
// the simulated machine — the same machine model as SimpleScalar's
// sim-outorder, which the REESE paper modified.
//
// The RUU is a circular queue that serves as combined reorder buffer,
// issue window, and renaming mechanism: dispatch allocates entries in
// program order at the tail, a create vector maps each architectural
// register to its most recent in-flight producer, and instructions leave
// from the head in program order once complete. Under REESE the head
// entries move into the R-stream Queue instead of committing directly.
// Both queues are a ring.Ring addressed by sequence number; this package
// adds what is specific to each: the RUU's create vector and wrong-path
// unwinding, and the LSQ's memory disambiguation.
package ruu

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/isa"
	"reese/internal/ring"
)

// NoProducer marks an operand whose value is already architectural (no
// in-flight producer).
const NoProducer = ^uint64(0)

// Entry is one in-flight instruction in the RUU.
type Entry struct {
	// Seq is the global program-order sequence number (also the slot
	// key).
	Seq uint64
	// Trace is the oracle record: decoded instruction, true operand
	// values, true result, true next PC.
	Trace emu.Trace

	// Dep1 and Dep2 are the sequence numbers of the in-flight producers
	// of the two source operands, or NoProducer when the operand is
	// architectural.
	Dep1, Dep2 uint64

	// Issued and Completed track execution state. DoneAt is the cycle
	// execution finishes (valid once Issued).
	Issued    bool
	Completed bool
	IssuedAt  uint64
	DoneAt    uint64

	// FUKind/FUUnit record which functional unit executed the
	// instruction (-1 = none acquired, e.g. forwarded loads), for
	// unit-level fault modelling.
	FUKind uint8
	FUUnit int

	// Mispredicted records that fetch predicted this control transfer
	// wrong; resolution unblocks fetch. BpHistory is the predictor
	// history snapshot the prediction used (trained at resolution).
	Mispredicted bool
	BpHistory    uint32

	// LSQSeq is the instruction's load/store queue sequence number, or
	// NoProducer for non-memory instructions.
	LSQSeq uint64

	// Dup marks a duplicate-at-dispatch redundant copy (the Franklin
	// [24] comparison scheme). PairSeq links it to its original.
	Dup     bool
	PairSeq uint64

	// Bogus marks a wrong-path instruction (fetched past a mispredicted
	// branch when wrong-path modelling is on). Bogus entries consume
	// resources but never resolve branches, train predictors, take
	// faults, or commit — they are squashed when the branch resolves.
	Bogus bool

	// destIdx/prevProducer record the create-vector slot this entry
	// claimed and its previous value, so TruncateAfter can unwind the
	// rename state when squashing wrong-path tails (-1 and NoProducer
	// when the entry claims none).
	destIdx      int
	prevProducer uint64

	// ResultP, NextPCP, AddrP and StoreValueP are the P-stream outcomes
	// as latched by the pipeline — normally equal to the trace, but a
	// fault injector may corrupt one of them at writeback.
	ResultP     uint32
	NextPCP     uint32
	AddrP       uint32
	StoreValueP uint32
	// FaultBit is the bit flipped by the injector (255 = none).
	FaultBit uint8
	// FaultCycle is the cycle the fault was injected (valid when
	// FaultBit != 255).
	FaultCycle uint64
}

// HasFault reports whether a fault was injected into this instruction.
func (e *Entry) HasFault() bool { return e.FaultBit != 255 }

// RUU is the register update unit.
type RUU struct {
	ring.Ring[Entry]

	// producer maps each architectural register (integer file first,
	// then FP file) to the sequence number of its latest in-flight
	// producer (the create vector).
	producer [2 * isa.NumRegs]uint64
}

// regIndex flattens (register, file) into the create-vector index.
func regIndex(r isa.Reg, f isa.RegFile) int {
	if f == isa.FileFP {
		return int(r) + isa.NumRegs
	}
	return int(r)
}

// New builds an RUU with the given capacity.
func New(size int) (*RUU, error) {
	if size < 2 {
		return nil, fmt.Errorf("ruu: size %d too small", size)
	}
	r := &RUU{Ring: ring.Make[Entry](size)}
	for i := range r.producer {
		r.producer[i] = NoProducer
	}
	return r, nil
}

// Dispatch allocates the tail entry for tr, wiring operand dependencies
// through the create vector and updating it for the destination. lsqSeq
// is the memory-order sequence for loads/stores (NoProducer otherwise).
// It returns nil if the RUU is full.
func (r *RUU) Dispatch(tr emu.Trace, lsqSeq uint64) *Entry {
	if r.Full() {
		return nil
	}
	seq := r.NextSeq()
	e := r.Push(Entry{
		Seq:          seq,
		Trace:        tr,
		Dep1:         NoProducer,
		Dep2:         NoProducer,
		LSQSeq:       lsqSeq,
		ResultP:      tr.Result,
		NextPCP:      tr.NextPC,
		AddrP:        tr.Addr,
		StoreValueP:  tr.StoreValue,
		FaultBit:     255,
		FUUnit:       -1,
		destIdx:      -1,
		prevProducer: NoProducer,
	})
	rs1, uses1, rs2, uses2 := tr.Inst.Sources()
	rs1File, rs2File := tr.Inst.Op.SourceFiles()
	if uses1 && !(rs1File == isa.FileInt && rs1 == isa.RegZero) {
		if p := r.producer[regIndex(rs1, rs1File)]; p != NoProducer && r.Resident(p) {
			e.Dep1 = p
		}
	}
	if uses2 && !(rs2File == isa.FileInt && rs2 == isa.RegZero) {
		if p := r.producer[regIndex(rs2, rs2File)]; p != NoProducer && r.Resident(p) {
			e.Dep2 = p
		}
	}
	if rd, ok := tr.Inst.Dest(); ok {
		rdFile := tr.Inst.Op.DestFile()
		if !(rdFile == isa.FileInt && rd == isa.RegZero) {
			idx := regIndex(rd, rdFile)
			e.destIdx = idx
			e.prevProducer = r.producer[idx]
			r.producer[idx] = seq
		}
	}
	return e
}

// DispatchDup allocates the tail entry for a redundant duplicate of the
// instruction with the given dependencies (copied from the original, so
// the duplicate waits on the same producers — it inherits the
// original's scheduling constraints, unlike an R-stream copy). It does
// not touch the create vector. Returns nil if full.
func (r *RUU) DispatchDup(tr emu.Trace, pairSeq, dep1, dep2, lsqSeq uint64) *Entry {
	if r.Full() {
		return nil
	}
	return r.Push(Entry{
		Seq:          r.NextSeq(),
		Trace:        tr,
		Dep1:         dep1,
		Dep2:         dep2,
		LSQSeq:       lsqSeq,
		Dup:          true,
		PairSeq:      pairSeq,
		ResultP:      tr.Result,
		NextPCP:      tr.NextPC,
		AddrP:        tr.Addr,
		StoreValueP:  tr.StoreValue,
		FaultBit:     255,
		FUUnit:       -1,
		destIdx:      -1,
		prevProducer: NoProducer,
	})
}

// TruncateAfter squashes every entry younger than seq (the wrong-path
// tail behind a resolved mispredicted branch), unwinding the create
// vector so rename state is as if they were never dispatched.
func (r *RUU) TruncateAfter(seq uint64) {
	if seq+1 >= r.NextSeq() {
		return
	}
	for s := r.NextSeq() - 1; s > seq; s-- {
		e := r.At(s)
		if e.destIdx >= 0 && r.producer[e.destIdx] == e.Seq {
			r.producer[e.destIdx] = e.prevProducer
		}
	}
	r.TruncateTo(seq + 1)
}

// depReady reports whether the producer with sequence dep has made its
// value available by cycle now.
func (r *RUU) depReady(dep uint64, now uint64) bool {
	if dep == NoProducer {
		return true
	}
	if !r.Resident(dep) {
		// Producer already left the RUU: value is architectural (or in
		// the R-stream Queue carrying its result), so it is available.
		return true
	}
	p := r.At(dep)
	return p.Completed && p.DoneAt <= now
}

// OperandsReady reports whether both source operands of e are available
// at cycle now (results forward the cycle they complete).
func (r *RUU) OperandsReady(e *Entry, now uint64) bool {
	return r.depReady(e.Dep1, now) && r.depReady(e.Dep2, now)
}

// Flush discards every in-flight instruction and clears the create
// vector (used for fault recovery; with oracle-path fetch there are no
// branch-mispredict flushes).
func (r *RUU) Flush() {
	r.Ring.Flush()
	for i := range r.producer {
		r.producer[i] = NoProducer
	}
}
