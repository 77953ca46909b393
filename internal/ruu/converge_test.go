package ruu

import (
	"testing"

	"reese/internal/isa"
)

// window is one machine's (RUU, LSQ) pair and its current cycle.
type window struct {
	r   *RUU
	l   *LSQ
	now uint64
}

// at returns the i-th resident RUU entry from the head.
func (w window) at(i int) *Entry { return w.r.Get(w.r.HeadSeq() + uint64(i)) }

// lat returns the i-th resident LSQ entry from the head.
func (w window) lat(i int) *LSQEntry { return w.l.Get(w.l.HeadSeq() + uint64(i)) }

// dispatch allocates tr in the RUU, and in the LSQ for memory ops.
func (w window) dispatch(op isa.Op, rd, rs1, rs2 isa.Reg) *Entry {
	tr := trace(op, rd, rs1, rs2)
	tr.Addr, tr.MemWidth = 64, 4
	ls := NoProducer
	if op.IsMem() {
		ls = w.l.Dispatch(tr, w.r.NextSeq()).MemSeq
	}
	return w.r.Dispatch(tr, ls)
}

// newWindow builds the same five in-flight instructions at cycle now,
// after warm other instructions were dispatched and flushed: a
// different warm count moves every absolute RUU and LSQ sequence.
func newWindow(t *testing.T, warm int, now uint64) window {
	t.Helper()
	r, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLSQ(4)
	if err != nil {
		t.Fatal(err)
	}
	w := window{r, l, now}
	for i := 0; i < warm; i++ {
		w.dispatch(isa.OpSw, 0, 1, 2)
		w.dispatch(isa.OpAdd, 9, 1, 2)
	}
	r.Flush()
	l.Flush()
	p := w.dispatch(isa.OpAdd, 5, 1, 2) // r5 <- r1 + r2
	w.dispatch(isa.OpLw, 6, 5, 0)       // r6 <- mem[r5]
	w.dispatch(isa.OpSub, 7, 5, 6)      // r7 <- r5 - r6
	w.dispatch(isa.OpSw, 0, 5, 7)       // mem[r5] <- r7
	w.dispatch(isa.OpAdd, 5, 7, 6)      // r5 <- r7 + r6
	p.Issued, p.Completed, p.DoneAt = true, true, now+4
	w.lat(1).Issued = true
	return w
}

func converged(a, b window) bool { return Converged(a.r, b.r, a.l, b.l, a.now, b.now) }

// Two windows with the same contents at different absolute sequences
// and cycles converge; changing any one compared field breaks it.
func TestConvergedNormalisesSequencesAndTimes(t *testing.T) {
	if a, b := newWindow(t, 0, 100), newWindow(t, 3, 7100); !converged(a, b) {
		t.Fatal("identical windows at different head sequences and cycles did not converge")
	}
	for name, mutate := range map[string]func(b window){
		"trace":         func(b window) { b.at(2).Trace.Result ^= 1 },
		"dep1 edge":     func(b window) { b.at(2).Dep1 = b.at(1).Seq },
		"dep2 edge":     func(b window) { b.at(2).Dep2 = b.at(0).Seq },
		"issued":        func(b window) { b.at(1).Issued = true },
		"completed":     func(b window) { b.at(0).Completed = false },
		"remaining":     func(b window) { b.at(0).DoneAt++ },
		"mispredicted":  func(b window) { b.at(3).Mispredicted = true },
		"bp history":    func(b window) { b.at(3).BpHistory = 7 },
		"lsq link":      func(b window) { b.at(1).LSQSeq = b.lat(1).MemSeq },
		"dup":           func(b window) { b.at(4).Dup = true },
		"bogus":         func(b window) { b.at(4).Bogus = true },
		"dest slot":     func(b window) { b.at(4).destIdx = 9 },
		"prev producer": func(b window) { b.at(4).prevProducer = NoProducer },
		"result":        func(b window) { b.at(0).ResultP ^= 1 },
		"next pc":       func(b window) { b.at(0).NextPCP ^= 4 },
		"address":       func(b window) { b.at(1).AddrP ^= 4 },
		"store value":   func(b window) { b.at(3).StoreValueP ^= 1 },
		"fault bit":     func(b window) { b.at(0).FaultBit = 3 },
		"create vector": func(b window) { b.r.producer[9] = b.at(2).Seq },
		"length":        func(b window) { b.dispatch(isa.OpAdd, 8, 1, 2) },
		"lsq store":     func(b window) { b.lat(0).IsStore = true },
		"lsq addr":      func(b window) { b.lat(0).Addr ^= 4 },
		"lsq width":     func(b window) { b.lat(0).Width = 1 },
		"lsq issued":    func(b window) { b.lat(0).Issued = true },
		"lsq forwarded": func(b window) { b.lat(0).Forwarded = true },
		"lsq owner":     func(b window) { b.lat(0).Seq = b.at(2).Seq },
	} {
		a, b := newWindow(t, 0, 100), newWindow(t, 3, 7100)
		mutate(b)
		if converged(a, b) {
			t.Errorf("%s: differing windows converged", name)
		}
	}
}

// A duplicate's pair link compares relative to the head.
func TestConvergedComparesPairLinks(t *testing.T) {
	a, b := newWindow(t, 0, 100), newWindow(t, 2, 100)
	for _, w := range []window{a, b} {
		w.at(4).Dup, w.at(4).PairSeq = true, w.at(3).Seq
	}
	if !converged(a, b) {
		t.Fatal("same pair links did not converge")
	}
	b.at(4).PairSeq = b.at(2).Seq
	if converged(a, b) {
		t.Error("different pair links converged")
	}
}

// A dependency on a producer that has left the window is as ready as no
// dependency at all, so the two compare equal.
func TestConvergedDepartedProducerIsNoProducer(t *testing.T) {
	a, b := newWindow(t, 0, 0), newWindow(t, 0, 0)
	for _, w := range []window{a, b} {
		w.r.Flush()
		w.l.Flush()
	}
	for _, w := range []window{a, b} {
		w.dispatch(isa.OpAdd, 5, 1, 2)
		w.dispatch(isa.OpAdd, 9, 1, 2)
	}
	ca := a.dispatch(isa.OpSub, 6, 5, 3)
	a.r.RemoveHead()
	a.r.RemoveHead()
	b.r.RemoveHead()
	b.r.RemoveHead()
	cb := b.dispatch(isa.OpSub, 6, 5, 3)
	if !a.r.Resident(ca.Seq) || ca.Dep1 == NoProducer || cb.Dep1 != NoProducer {
		t.Fatalf("setup: deps %d and %d", ca.Dep1, cb.Dep1)
	}
	if !converged(a, b) {
		t.Error("a departed producer did not compare equal to NoProducer")
	}
}
