package reese

import (
	"testing"
	"testing/quick"

	"reese/internal/emu"
	"reese/internal/isa"
)

func newQ(t *testing.T, size int) *Queue {
	t.Helper()
	q, err := New(size, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func aluEntry(seq uint64, a, b, result uint32) Entry {
	return Entry{
		Seq: seq,
		Trace: emu.Trace{
			Inst:      isa.Instruction{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
			A:         a,
			B:         b,
			Result:    result,
			HasResult: true,
		},
		ResultP:  result,
		FaultBit: 255,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 1, false); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := New(8, 20, 1, false); err == nil {
		t.Error("high water beyond size should fail")
	}
	if _, err := New(8, 0, -1, false); err == nil {
		t.Error("negative reexec should fail")
	}
	q, err := New(8, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Error("cap")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := newQ(t, 4)
	for i := uint64(0); i < 4; i++ {
		if q.Enqueue(aluEntry(i, 1, 2, 3), 0) == nil {
			t.Fatalf("enqueue %d", i)
		}
	}
	if !q.Full() {
		t.Error("should be full")
	}
	if q.Enqueue(aluEntry(9, 1, 2, 3), 0) != nil {
		t.Error("enqueue into full queue should fail")
	}
	// Dispatch order must be FIFO.
	for i := uint64(0); i < 4; i++ {
		e := q.NextToDispatch()
		if e == nil || e.Seq != i {
			t.Fatalf("dispatch order broken at %d: %+v", i, e)
		}
		q.MarkDispatched(e)
	}
	if q.NextToDispatch() != nil {
		t.Error("all dispatched")
	}
}

func TestRetireRequiresVerification(t *testing.T) {
	q := newQ(t, 4)
	e := q.Enqueue(aluEntry(0, 1, 2, 3), 5)
	defer func() {
		if recover() == nil {
			t.Error("RetireHead on unverified entry should panic")
		}
	}()
	_ = e
	q.RetireHead()
}

func TestCompareALUMatch(t *testing.T) {
	q := newQ(t, 4)
	e := q.Enqueue(aluEntry(0, 10, 32, 42), 0)
	if !q.Compare(e) {
		t.Error("correct result should verify")
	}
	if !e.Verified || e.Mismatch {
		t.Error("flags wrong")
	}
	st := q.Stats()
	if st.Verified != 1 || st.Mismatches != 0 {
		t.Errorf("stats %+v", st)
	}
	// Now retirement works.
	got := q.RetireHead()
	if got.Seq != 0 {
		t.Error("retired wrong entry")
	}
}

func TestCompareALUMismatch(t *testing.T) {
	q := newQ(t, 4)
	ent := aluEntry(0, 10, 32, 42)
	ent.ResultP = 42 ^ (1 << 7) // corrupted P result
	ent.FaultBit = 7
	e := q.Enqueue(ent, 0)
	if q.Compare(e) {
		t.Error("corrupted result must not verify")
	}
	if !e.Mismatch || e.Verified {
		t.Error("flags wrong")
	}
	if q.Stats().Mismatches != 1 {
		t.Error("mismatch not counted")
	}
}

func TestCompareEveryOpKind(t *testing.T) {
	mk := func(in isa.Instruction, tr emu.Trace) Entry {
		tr.Inst = in
		return Entry{
			Trace:       tr,
			ResultP:     tr.Result,
			NextPCP:     tr.NextPC,
			AddrP:       tr.Addr,
			StoreValueP: tr.StoreValue,
			FaultBit:    255,
		}
	}
	cases := []struct {
		name    string
		entry   Entry
		corrupt func(*Entry)
	}{
		{
			"load",
			mk(isa.Instruction{Op: isa.OpLw, Rd: 1, Rs1: 2, Imm: 8},
				emu.Trace{A: 100, Addr: 108, Result: 77, HasResult: true}),
			func(e *Entry) { e.ResultP ^= 1 },
		},
		{
			"load-addr",
			mk(isa.Instruction{Op: isa.OpLw, Rd: 1, Rs1: 2, Imm: 8},
				emu.Trace{A: 100, Addr: 108, Result: 77, HasResult: true}),
			func(e *Entry) { e.AddrP ^= 4 },
		},
		{
			"store",
			mk(isa.Instruction{Op: isa.OpSw, Rs1: 2, Rs2: 3, Imm: -4},
				emu.Trace{A: 100, B: 55, Addr: 96, StoreValue: 55}),
			func(e *Entry) { e.StoreValueP ^= 2 },
		},
		{
			"branch",
			mk(isa.Instruction{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Imm: 3},
				emu.Trace{PC: 100, A: 5, B: 5, Taken: true, NextPC: 116}),
			func(e *Entry) { e.NextPCP ^= 8 },
		},
		{
			"jump",
			mk(isa.Instruction{Op: isa.OpJ, Imm: 2},
				emu.Trace{PC: 100, NextPC: 112, Taken: true}),
			func(e *Entry) { e.NextPCP ^= 16 },
		},
		{
			"jalr",
			mk(isa.Instruction{Op: isa.OpJalr, Rd: 31, Rs1: 5},
				emu.Trace{PC: 100, A: 200, NextPC: 200, Result: 104, HasResult: true, Taken: true}),
			func(e *Entry) { e.ResultP ^= 1 },
		},
		{
			"alu",
			mk(isa.Instruction{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3},
				emu.Trace{A: 6, B: 7, Result: 42, HasResult: true}),
			func(e *Entry) { e.ResultP ^= 32 },
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			q := newQ(t, 4)
			good := tt.entry
			e := q.Enqueue(good, 0)
			if !q.Compare(e) {
				t.Fatalf("clean %s should verify", tt.name)
			}
			q2 := newQ(t, 4)
			bad := tt.entry
			e2 := q2.Enqueue(bad, 0)
			tt.corrupt(e2)
			if q2.Compare(e2) {
				t.Errorf("corrupted %s should mismatch", tt.name)
			}
		})
	}
}

func TestCompareHaltAndOutAlwaysVerify(t *testing.T) {
	q := newQ(t, 4)
	for _, op := range []isa.Op{isa.OpHalt, isa.OpOut} {
		e := q.Enqueue(Entry{Trace: emu.Trace{Inst: isa.Instruction{Op: op}}, FaultBit: 255}, 0)
		if !q.Compare(e) {
			t.Errorf("%s has no comparable result and must verify", op)
		}
	}
}

func TestPressureHighWater(t *testing.T) {
	q, err := New(8, 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		q.Enqueue(aluEntry(i, 1, 2, 3), 0)
	}
	if q.PressureHigh() {
		t.Error("below high water")
	}
	q.Enqueue(aluEntry(5, 1, 2, 3), 0)
	if !q.PressureHigh() {
		t.Error("at high water")
	}
}

func TestDefaultHighWater(t *testing.T) {
	q, err := New(32, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 23; i++ {
		q.Enqueue(aluEntry(i, 1, 2, 3), 0)
	}
	if q.PressureHigh() {
		t.Error("23 of 32 should be below the default high water (24)")
	}
	q.Enqueue(aluEntry(23, 1, 2, 3), 0)
	if !q.PressureHigh() {
		t.Error("24 of 32 should trip the default high water")
	}
}

func TestPartialReexecutionMarksSkipped(t *testing.T) {
	q, err := New(16, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i := uint64(0); i < 10; i++ {
		e := q.Enqueue(aluEntry(i, 1, 2, 3), 0)
		if e.Skipped {
			skipped++
			if !e.Verified || !e.Done || !e.Issued {
				t.Error("skipped entries must be pre-verified")
			}
		}
	}
	if skipped != 5 {
		t.Errorf("skipped %d of 10, want 5", skipped)
	}
	if q.Stats().Skipped != 5 {
		t.Error("skip stat")
	}
}

func TestFlush(t *testing.T) {
	q := newQ(t, 4)
	q.Enqueue(aluEntry(0, 1, 2, 3), 0)
	q.Flush()
	if !q.Empty() {
		t.Error("flush should empty the queue")
	}
	if q.NextToDispatch() != nil {
		t.Error("nothing to dispatch after flush")
	}
}

func TestGetByQSeq(t *testing.T) {
	q := newQ(t, 4)
	e := q.Enqueue(aluEntry(7, 1, 2, 3), 0)
	got := q.Get(e.QSeq)
	if got.Seq != 7 {
		t.Errorf("Get returned seq %d", got.Seq)
	}
	if q.Resident(99) {
		t.Error("bogus qseq resident")
	}
}

// Property: a clean entry (ResultP etc. latched from the trace) always
// verifies; flipping any single bit of the latched result of an ALU op
// always mismatches. This is the comparator's soundness/completeness
// for the paper's fault model.
func TestCompareDetectsEverySingleBitFlip(t *testing.T) {
	f := func(a, b uint32, bit uint8) bool {
		q, _ := New(4, 0, 1, false)
		result := isa.EvalALU(isa.OpXor, a, b, 0)
		ent := Entry{
			Trace: emu.Trace{
				Inst:      isa.Instruction{Op: isa.OpXor, Rd: 1, Rs1: 2, Rs2: 3},
				A:         a,
				B:         b,
				Result:    result,
				HasResult: true,
			},
			ResultP:  result,
			FaultBit: 255,
		}
		e := q.Enqueue(ent, 0)
		if !q.Compare(e) {
			return false
		}
		q2, _ := New(4, 0, 1, false)
		ent.ResultP ^= 1 << (bit % 32)
		e2 := q2.Enqueue(ent, 0)
		return !q2.Compare(e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	q := newQ(t, 8)
	q.NoteFullStall()
	q.NotePriorityCycle()
	e := q.Enqueue(aluEntry(0, 1, 2, 3), 0)
	q.MarkDispatched(e)
	q.MarkIssued(e, 5, 7)
	if e.IssuedAt != 5 || e.DoneAt != 7 || !e.Issued {
		t.Error("issue marking")
	}
	st := q.Stats()
	if st.FullStalls != 1 || st.PriorityCycles != 1 || st.Reexecuted != 1 || st.Enqueued != 1 {
		t.Errorf("stats %+v", st)
	}
}
