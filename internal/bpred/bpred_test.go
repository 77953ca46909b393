package bpred

import (
	"math/rand"
	"testing"
)

// resolve trains p with a branch's outcome under the current history,
// then shifts the outcome into it: what the pipeline does for a
// correctly predicted branch, fetch and resolution folded together.
func resolve(p Predictor, pc uint32, taken bool) {
	p.TrainAt(pc, p.Snapshot(), taken)
	p.ShiftHistory(taken)
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter underflow: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter overflow: %d", c)
	}
	if !c.taken() || counter(1).taken() {
		t.Error("taken threshold wrong")
	}
}

func TestGshareLearnsAlwaysTaken(t *testing.T) {
	g, err := NewGshare(12)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x1000)
	for i := 0; i < 20; i++ {
		resolve(g, pc, true)
	}
	if !g.Predict(pc) {
		t.Error("gshare failed to learn always-taken")
	}
}

func TestGshareLearnsAlternatingViaHistory(t *testing.T) {
	// A strictly alternating branch is perfectly predictable with global
	// history: after warmup gshare should exceed 90% accuracy.
	g, err := NewGshare(12)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x2000)
	taken := false
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		p := g.Predict(pc)
		if i > 500 {
			total++
			if p == taken {
				correct++
			}
		}
		resolve(g, pc, taken)
		taken = !taken
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("gshare accuracy on alternating = %.2f, want > 0.9", acc)
	}
}

func TestGshareBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: global
	// history captures this, a bimodal table cannot.
	g, _ := NewGshare(12)
	b, _ := NewBimodal(12)
	r := rand.New(rand.NewSource(7))
	pcA, pcB := uint32(0x100), uint32(0x200)
	var gCorrect, bCorrect, total int
	for i := 0; i < 5000; i++ {
		outA := r.Intn(2) == 0
		resolve(g, pcA, outA)
		resolve(b, pcA, outA)
		// B repeats A deterministically.
		outB := outA
		if i > 1000 {
			total++
			if g.Predict(pcB) == outB {
				gCorrect++
			}
			if b.Predict(pcB) == outB {
				bCorrect++
			}
		}
		resolve(g, pcB, outB)
		resolve(b, pcB, outB)
	}
	gAcc := float64(gCorrect) / float64(total)
	bAcc := float64(bCorrect) / float64(total)
	if gAcc < 0.95 {
		t.Errorf("gshare accuracy on correlated = %.2f, want > 0.95", gAcc)
	}
	if gAcc <= bAcc {
		t.Errorf("gshare (%.2f) should beat bimodal (%.2f) on correlated branches", gAcc, bAcc)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b, err := NewBimodal(10)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400)
	for i := 0; i < 10; i++ {
		resolve(b, pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn not-taken bias")
	}
	// Different PC maps to a different counter: still default.
	if !b.Predict(pc + 4) {
		t.Error("unrelated PC affected")
	}
}

func TestStatic(t *testing.T) {
	st := &Static{Taken: true}
	if !st.Predict(0) {
		t.Error("static taken")
	}
	resolve(st, 0, false) // no-op
	if !st.Predict(0) {
		t.Error("static must not learn")
	}
	snt := &Static{}
	if snt.Predict(0) {
		t.Error("static not-taken")
	}
	if st.Name() == snt.Name() {
		t.Error("names must differ")
	}
}

func TestCombiningPrefersBetterComponent(t *testing.T) {
	// Component 1 = always right (oracle-ish static taken on always-taken
	// stream), component 2 = always wrong.
	c, err := NewCombining(&Static{Taken: true}, &Static{Taken: false}, 10)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x10)
	for i := 0; i < 20; i++ {
		resolve(c, pc, true)
	}
	if !c.Predict(pc) {
		t.Error("combining should have learned to trust the taken component")
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewGshare(0); err == nil {
		t.Error("gshare bits 0 should fail")
	}
	if _, err := NewGshare(30); err == nil {
		t.Error("gshare bits 30 should fail")
	}
	if _, err := NewBimodal(0); err == nil {
		t.Error("bimodal bits 0 should fail")
	}
	if _, err := NewCombining(&Static{}, &Static{}, 0); err == nil {
		t.Error("combining bits 0 should fail")
	}
	if _, err := NewBTB(3, 2); err == nil {
		t.Error("btb sets 3 should fail")
	}
	if _, err := NewBTB(4, 0); err == nil {
		t.Error("btb assoc 0 should fail")
	}
	if _, err := NewRAS(0); err == nil {
		t.Error("ras size 0 should fail")
	}
}

func TestBTBBasic(t *testing.T) {
	btb, err := NewBTB(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := btb.Lookup(0x100); ok {
		t.Error("empty BTB should miss")
	}
	btb.Insert(0x100, 0x500)
	tgt, ok := btb.Lookup(0x100)
	if !ok || tgt != 0x500 {
		t.Errorf("lookup = %#x,%v", tgt, ok)
	}
	// Re-insert updates the target in place.
	btb.Insert(0x100, 0x600)
	if tgt, _ := btb.Lookup(0x100); tgt != 0x600 {
		t.Errorf("updated target = %#x", tgt)
	}
}

func TestBTBReplacement(t *testing.T) {
	btb, err := NewBTB(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three PCs in the same set (stride sets*4 = 16 bytes).
	a, b, c := uint32(0x00), uint32(0x10), uint32(0x20)
	btb.Insert(a, 1)
	btb.Insert(b, 2)
	btb.Lookup(a) // a becomes MRU
	btb.Insert(c, 3)
	if _, ok := btb.Lookup(a); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := btb.Lookup(b); ok {
		t.Error("LRU entry should have been evicted")
	}
}

func TestRAS(t *testing.T) {
	r, err := NewRAS(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS should fail to pop")
	}
	r.Push(10)
	r.Push(20)
	if r.top != 2 {
		t.Errorf("depth = %d", r.top)
	}
	if v, _ := r.Pop(); v != 20 {
		t.Errorf("pop = %d, want 20", v)
	}
	if v, _ := r.Pop(); v != 10 {
		t.Errorf("pop = %d, want 10", v)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r, _ := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	// Third pop returns the overwritten slot (now 3's old position).
	if v, ok := r.Pop(); !ok || v != 3 {
		t.Errorf("wrapped pop = %d,%v", v, ok)
	}
}

func TestGshareSnapshotTrainAt(t *testing.T) {
	g, _ := NewGshare(8)
	snap := g.Snapshot()
	pred := g.Predict(0x40)
	// History moves on (speculative shifts for later branches).
	g.ShiftHistory(true)
	g.ShiftHistory(false)
	g.ShiftHistory(true)
	// Training with the snapshot must adjust the entry the prediction
	// used: repeat until the prediction under the ORIGINAL history
	// flips.
	for i := 0; i < 4; i++ {
		g.TrainAt(0x40, snap, !pred)
	}
	g.Restore(snap)
	if g.Predict(0x40) == pred {
		t.Error("TrainAt did not reach the predicted entry")
	}
}

func TestGshareRestore(t *testing.T) {
	g, _ := NewGshare(10)
	g.ShiftHistory(true)
	g.ShiftHistory(true)
	snap := g.Snapshot()
	g.ShiftHistory(false)
	g.ShiftHistory(true)
	g.Restore(snap)
	if g.Snapshot() != snap {
		t.Errorf("restore: %#x != %#x", g.Snapshot(), snap)
	}
}

func TestHistoryFreeSnapshotRestore(t *testing.T) {
	b, _ := NewBimodal(8)
	if b.Snapshot() != 0 {
		t.Error("bimodal snapshot")
	}
	b.Restore(5) // no-op, must not panic
	s := &Static{}
	if s.Snapshot() != 0 {
		t.Error("static snapshot")
	}
	s.Restore(1)
}

// StateEqual has one nil rule for every predictor: a nil read-set
// compares every pattern-table entry, a non-nil one only the entries
// it marks (history still compares exactly), and predictors that log
// no reads ignore the set.
func TestStateEqualReadSet(t *testing.T) {
	g1, _ := NewGshare(6)
	b1, _ := NewBimodal(6)
	for _, p := range []Predictor{g1, b1} {
		rl := p.(ReadLogger)
		rs := NewReadSet(rl.NumEntries())
		rs.set(3)
		q := p.CloneInto(nil)
		if !p.StateEqual(q, nil) || !p.StateEqual(q, rs) {
			t.Fatalf("%s: clone not equal", p.Name())
		}
		// Diverge an entry the read-set does not mark.
		switch v := q.(type) {
		case *Gshare:
			v.table[5] ^= 1
		case *Bimodal:
			v.table[5] ^= 1
		}
		if p.StateEqual(q, nil) {
			t.Errorf("%s: nil read-set missed an unread entry", p.Name())
		}
		if !p.StateEqual(q, rs) {
			t.Errorf("%s: read-set compared an entry it does not mark", p.Name())
		}
		rs.set(5)
		if p.StateEqual(q, rs) {
			t.Errorf("%s: read-set missed a marked entry", p.Name())
		}
	}
	// History stays exact under any read-set.
	g2 := g1.CloneInto(nil)
	g2.ShiftHistory(true)
	if g1.StateEqual(g2, NewReadSet(g1.NumEntries())) {
		t.Error("gshare: history difference hidden by an empty read-set")
	}
	// A combining predictor logs no reads, so a read-set cannot hide a
	// component difference.
	c1, _ := NewCombining(g1.CloneInto(nil), b1.CloneInto(nil), 4)
	c2 := c1.CloneInto(nil)
	c2.(*Combining).p1.(*Gshare).table[7] ^= 1
	if c1.StateEqual(c2, NewReadSet(g1.NumEntries())) {
		t.Error("combining: read-set hid a component difference")
	}
}

// CloneInto refills a destination of the same kind in place, without
// allocating, and replaces one of another kind or geometry; either way
// the copy equals the source and shares no table with it.
func TestCloneIntoReusesSameKind(t *testing.T) {
	build := func(gbits, bbits uint32) []Predictor {
		g, _ := NewGshare(gbits)
		b, _ := NewBimodal(bbits)
		g2, _ := NewGshare(gbits)
		b2, _ := NewBimodal(bbits)
		c, _ := NewCombining(g2, b2, bbits)
		ps := []Predictor{g, b, &Static{Taken: true}, c}
		r := rand.New(rand.NewSource(int64(gbits)))
		for _, p := range ps {
			for i := 0; i < 300; i++ {
				resolve(p, uint32(r.Intn(1<<12))<<2, r.Intn(3) == 0)
			}
		}
		return ps
	}
	src, same, other := build(8, 6), build(8, 6), build(5, 9)
	for i, p := range src {
		d := same[i]
		if allocs := testing.AllocsPerRun(10, func() { p.CloneInto(d) }); allocs != 0 {
			t.Errorf("%s: CloneInto a %s allocates %.0f", p.Name(), d.Name(), allocs)
		}
		if got := p.CloneInto(d); got != d || !p.StateEqual(got, nil) {
			t.Errorf("%s: CloneInto a same-kind predictor did not refill it", p.Name())
		}
		for _, d := range append(other, nil) {
			got := p.CloneInto(d)
			if !p.StateEqual(got, nil) || got.Name() != p.Name() {
				t.Errorf("%s: CloneInto %v gave an unequal %s", p.Name(), d, got.Name())
			}
		}
		// The copy is independent of the source.
		got := p.CloneInto(d)
		flip := !p.Predict(0x40)
		for i := 0; i < 4; i++ {
			resolve(p, 0x40, flip)
		}
		if _, ok := p.(*Static); !ok && p.StateEqual(got, nil) {
			t.Errorf("%s: training the source changed the copy", p.Name())
		}
	}
}

func TestBTBAndRASCloneInto(t *testing.T) {
	btb, _ := NewBTB(16, 2)
	ras, _ := NewRAS(4)
	for i := uint32(0); i < 40; i++ {
		btb.Insert(i*12, i)
		ras.Push(i)
	}
	small, _ := NewBTB(4, 1)
	shallow, _ := NewRAS(2)
	for _, dst := range []*BTB{nil, small, btb.CloneInto(nil)} {
		got := btb.CloneInto(dst)
		if !btb.StateEqualRanked(got) || (dst != nil && got != dst) {
			t.Errorf("BTB CloneInto(%p) = %p, not an equal refill", dst, got)
		}
	}
	for _, dst := range []*RAS{nil, shallow, ras.CloneInto(nil)} {
		got := ras.CloneInto(dst)
		if !ras.StateEqual(got) || (dst != nil && got != dst) {
			t.Errorf("RAS CloneInto(%p) = %p, not an equal refill", dst, got)
		}
	}
	bd, rd := btb.CloneInto(nil), ras.CloneInto(nil)
	if allocs := testing.AllocsPerRun(10, func() { btb.CloneInto(bd); ras.CloneInto(rd) }); allocs != 0 {
		t.Errorf("BTB and RAS CloneInto a same-geometry copy allocate %.0f", allocs)
	}
	btb.Insert(0x1000, 7)
	ras.Push(99)
	if btb.StateEqualRanked(bd) || ras.StateEqual(rd) {
		t.Error("changing the source changed the copy")
	}
}
