package ring

import "testing"

// A capacity that is not a power of two keeps its configured bound while
// the slots round up; sequences wrap across the slot count.
func TestCapacityAndWrap(t *testing.T) {
	r := Make[int](5)
	if len(r.slots) != 8 || r.Cap() != 5 {
		t.Fatalf("slots %d cap %d, want 8 slots of capacity 5", len(r.slots), r.Cap())
	}
	for i := 0; i < 5; i++ {
		if r.Full() {
			t.Fatalf("full after %d pushes", i)
		}
		r.Push(i)
	}
	if !r.Full() || r.Len() != 5 {
		t.Fatalf("full %v len %d after 5 pushes", r.Full(), r.Len())
	}
	// Drive the sequences past two laps of the 8 slots, keeping the ring
	// full so resident entries straddle the wrap.
	for s := 5; s < 21; s++ {
		if got := r.RemoveHead(); got != s-5 {
			t.Fatalf("removed %d, want %d", got, s-5)
		}
		e := r.Push(s)
		if e != r.Get(uint64(s)) || *e != s {
			t.Fatalf("seq %d: slot holds %d", s, *e)
		}
	}
	if r.HeadSeq() != 16 || r.NextSeq() != 21 || !r.Full() {
		t.Fatalf("head %d next %d full %v", r.HeadSeq(), r.NextSeq(), r.Full())
	}
	var seen []int
	r.Scan(func(v *int) bool { seen = append(seen, *v); return true })
	for i, v := range seen {
		if v != 16+i {
			t.Fatalf("scan order %v", seen)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("scan visited %d", len(seen))
	}
	if *r.Head() != 16 || r.Resident(15) || r.Resident(21) {
		t.Errorf("head %d resident(15) %v resident(21) %v", *r.Head(), r.Resident(15), r.Resident(21))
	}
}

func TestGetPanicsOffWindow(t *testing.T) {
	r := Make[int](4)
	r.Push(1)
	r.RemoveHead()
	defer func() {
		if recover() == nil {
			t.Error("Get of a retired sequence should panic")
		}
	}()
	r.Get(0)
}

func TestTruncateToClampsAtHead(t *testing.T) {
	r := Make[int](8)
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	r.RemoveHead()
	r.RemoveHead()
	r.TruncateTo(4)
	if r.HeadSeq() != 2 || r.NextSeq() != 4 {
		t.Fatalf("after TruncateTo(4): [%d,%d), want [2,4)", r.HeadSeq(), r.NextSeq())
	}
	r.TruncateTo(9) // beyond the tail: no-op
	if r.NextSeq() != 4 {
		t.Fatalf("TruncateTo past the tail moved it to %d", r.NextSeq())
	}
	r.TruncateTo(0)
	if !r.Empty() || r.HeadSeq() != 2 || r.NextSeq() != 2 {
		t.Fatalf("TruncateTo below the head: [%d,%d), want empty at 2", r.HeadSeq(), r.NextSeq())
	}
	if e := r.Push(7); e != r.Get(2) {
		t.Error("push after clamped truncate did not reuse sequence 2")
	}
}

func TestCopyFromReusesArrayAndIsIndependent(t *testing.T) {
	src := Make[int](6)
	for i := 0; i < 9; i++ {
		src.Push(i)
		if src.Len() > 4 {
			src.RemoveHead()
		}
	}
	dst := Make[int](6)
	arr := &dst.slots[0]
	dst.CopyFrom(&src)
	if &dst.slots[0] != arr {
		t.Error("CopyFrom allocated a new slot array for a same-size destination")
	}
	if !Equal(&dst, &src, func(a, b *int) bool { return *a == *b }) ||
		dst.HeadSeq() != src.HeadSeq() || dst.NextSeq() != src.NextSeq() {
		t.Fatal("copy differs from its source")
	}
	*dst.Head() = 100
	dst.Push(200)
	if *src.Head() == 100 || src.Len() != 4 {
		t.Error("writing the copy changed the source")
	}
	var zero Ring[int]
	zero.CopyFrom(&src)
	if zero.Len() != 4 || *zero.Get(src.HeadSeq()) != *src.Head() {
		t.Error("copy into a zero ring")
	}
}

func TestNormSeq(t *testing.T) {
	r := Make[int](4)
	for i := 0; i < 6; i++ {
		r.Push(i)
		if r.Len() > 3 {
			r.RemoveHead()
		}
	}
	// Resident [3,6).
	for _, c := range []struct{ seq, want uint64 }{
		{3, 0}, {5, 2},
		{2, absent},          // retired
		{6, absent},          // not yet pushed
		{^uint64(0), absent}, // "no reference" marker of the queues
	} {
		if got := r.NormSeq(c.seq); got != c.want {
			t.Errorf("NormSeq(%d) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	eq := func(a, b *int) bool { return *a == *b }
	fill := func(capacity int, skip int, vals ...int) *Ring[int] {
		r := Make[int](capacity)
		for i := 0; i < skip; i++ {
			r.Push(-1)
			r.RemoveHead()
		}
		for _, v := range vals {
			r.Push(v)
		}
		return &r
	}
	a := fill(4, 0, 1, 2, 3)
	if !Equal(a, fill(4, 13, 1, 2, 3), eq) {
		t.Error("same contents at different head offsets should be equal")
	}
	if Equal(a, fill(4, 13, 1, 2, 4), eq) {
		t.Error("different contents compared equal")
	}
	if Equal(fill(4, 0, 1, 2), a, eq) || Equal(a, fill(4, 0, 1, 2), eq) {
		t.Error("length mismatch compared equal")
	}
	if Equal(a, fill(5, 0, 1, 2, 3), eq) {
		t.Error("capacity mismatch compared equal")
	}
	var order []int
	Equal(a, fill(4, 6, 1, 2, 3), func(x, y *int) bool { order = append(order, *x); return true })
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Errorf("pairs visited %v, want oldest first", order)
	}
}

func TestRelTime(t *testing.T) {
	for _, c := range []struct{ v, now, want uint64 }{{5, 10, 0}, {10, 10, 0}, {13, 10, 3}} {
		if got := RelTime(c.v, c.now); got != c.want {
			t.Errorf("RelTime(%d, %d) = %d, want %d", c.v, c.now, got, c.want)
		}
	}
}
