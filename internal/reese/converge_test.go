package reese

import (
	"testing"

	"reese/internal/emu"
	"reese/internal/isa"
	"reese/internal/ruu"
)

// rsq is one machine's R-stream Queue, its LSQ and its current cycle.
type rsq struct {
	q   *Queue
	l   *ruu.LSQ
	now uint64
}

// at returns the i-th resident entry from the head.
func (s rsq) at(i int) *Entry { return s.q.Get(s.q.HeadSeq() + uint64(i)) }

// newRSQ builds the same three queued instructions at cycle now, after
// warm other instructions were enqueued and flushed: a different warm
// count moves every absolute queue and LSQ sequence.
func newRSQ(t *testing.T, warm int, now uint64) rsq {
	t.Helper()
	q := newQ(t, 8)
	l, err := ruu.NewLSQ(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		q.Enqueue(aluEntry(uint64(i), 1, 2, 3), 0)
		l.Dispatch(emu.Trace{Inst: isa.Instruction{Op: isa.OpLw}}, uint64(i))
	}
	q.Flush()
	l.Flush()
	s := rsq{q, l, now}
	// As in the pipeline, non-memory entries carry no LSQ link.
	alu := func(seq uint64, a, b, result uint32) Entry {
		e := aluEntry(seq, a, b, result)
		e.LSQSeq = ruu.NoProducer
		return e
	}
	q.Enqueue(alu(10, 1, 2, 3), now)
	ld := aluEntry(11, 4, 0, 9)
	ld.Trace.Inst.Op = isa.OpLw
	ld.LSQSeq = l.Dispatch(ld.Trace, 11).MemSeq
	q.Enqueue(ld, now)
	q.Enqueue(alu(12, 5, 6, 11), now)
	l.Dispatch(emu.Trace{Inst: isa.Instruction{Op: isa.OpSw}}, 13)
	q.MarkDispatched(s.at(0))
	q.MarkIssued(s.at(0), now, now+3)
	return s
}

func rsqConverged(a, b rsq) bool { return a.q.StateConverged(b.q, a.now, b.now, a.l, b.l) }

// Two queues with the same contents at different absolute sequences and
// cycles converge; changing any one compared field breaks it.
func TestStateConvergedNormalisesSequencesAndTimes(t *testing.T) {
	if a, b := newRSQ(t, 0, 50), newRSQ(t, 5, 9050); !rsqConverged(a, b) {
		t.Fatal("identical queues at different head sequences and cycles did not converge")
	}
	for name, mutate := range map[string]func(b rsq){
		"trace":          func(b rsq) { b.at(2).Trace.A ^= 1 },
		"result":         func(b rsq) { b.at(0).ResultP ^= 1 },
		"next pc":        func(b rsq) { b.at(0).NextPCP ^= 4 },
		"address":        func(b rsq) { b.at(1).AddrP ^= 4 },
		"store value":    func(b rsq) { b.at(1).StoreValueP ^= 1 },
		"fault bit":      func(b rsq) { b.at(2).FaultBit = 7 },
		"lsq link":       func(b rsq) { b.at(1).LSQSeq = b.l.HeadSeq() + 1 },
		"dispatched":     func(b rsq) { b.at(1).Dispatched = true },
		"issued":         func(b rsq) { b.at(0).Issued = false },
		"done":           func(b rsq) { b.at(0).Done = true },
		"verified":       func(b rsq) { b.at(0).Verified = true },
		"mismatch":       func(b rsq) { b.at(0).Mismatch = true },
		"skipped":        func(b rsq) { b.at(2).Skipped = true },
		"remaining":      func(b rsq) { b.at(0).DoneAt++ },
		"r fault mask":   func(b rsq) { b.at(0).RFaultMask = 1 },
		"operand a mask": func(b rsq) { b.at(2).OperandAMask = 1 },
		"operand b mask": func(b rsq) { b.at(2).OperandBMask = 1 },
		"comparator":     func(b rsq) { b.at(2).CompIgnore = 1 },
		"length":         func(b rsq) { b.q.Enqueue(aluEntry(13, 0, 0, 0), b.now) },
		"live copies":    func(b rsq) { b.q.live++ },
		"high water":     func(b rsq) { b.q.highWater++ },
		"stride":         func(b rsq) { b.q.every = 2 },
		"reso":           func(b rsq) { b.q.reso = true },
	} {
		a, b := newRSQ(t, 0, 50), newRSQ(t, 5, 9050)
		mutate(b)
		if rsqConverged(a, b) {
			t.Errorf("%s: differing queues converged", name)
		}
	}
}
