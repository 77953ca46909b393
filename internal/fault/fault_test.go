package fault

import (
	"testing"
	"testing/quick"

	"reese/internal/emu"
	"reese/internal/isa"
)

func TestNoneNeverFires(t *testing.T) {
	var n None
	for i := uint64(0); i < 1000; i++ {
		if _, ok := n.Decide(i, emu.Trace{}); ok {
			t.Fatal("None injected")
		}
	}
}

func TestAtSeqFiresExactlyOnce(t *testing.T) {
	a := &AtSeq{Seq: 42, Bit: 5}
	fired := 0
	for i := uint64(0); i < 100; i++ {
		if inj, ok := a.Decide(i, emu.Trace{}); ok {
			fired++
			if i != 42 {
				t.Errorf("fired at %d", i)
			}
			if inj.Bit != 5 {
				t.Errorf("bit = %d", inj.Bit)
			}
		}
	}
	if fired != 1 || !a.Fired() {
		t.Errorf("fired %d times", fired)
	}
	// Even if seq 42 repeats (replay), it must not re-fire.
	if _, ok := a.Decide(42, emu.Trace{}); ok {
		t.Error("re-fired on replay")
	}
}

func TestPeriodic(t *testing.T) {
	p := &Periodic{Interval: 10, Start: 5}
	var fires []uint64
	for i := uint64(0); i < 50; i++ {
		if _, ok := p.Decide(i, emu.Trace{}); ok {
			fires = append(fires, i)
		}
	}
	want := []uint64{5, 15, 25, 35, 45}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v", fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fires = %v, want %v", fires, want)
		}
	}
	if p.Injected() != 5 {
		t.Errorf("injected = %d", p.Injected())
	}
	zero := &Periodic{}
	if _, ok := zero.Decide(0, emu.Trace{}); ok {
		t.Error("zero interval must never fire")
	}
}

func TestRandomDeterministic(t *testing.T) {
	r1 := NewRandom(1<<28, 7)
	r2 := NewRandom(1<<28, 7)
	for i := uint64(0); i < 2000; i++ {
		_, ok1 := r1.Decide(i, emu.Trace{})
		_, ok2 := r2.Decide(i, emu.Trace{})
		if ok1 != ok2 {
			t.Fatal("same seed must give same decisions")
		}
	}
	if r1.Injected() == 0 {
		t.Error("probability 1/16 over 2000 trials should fire")
	}
	if r1.Injected() != r2.Injected() {
		t.Error("counts differ")
	}
}

// XorShift is xorshift64* with the zero seed replaced, pinned by its
// first output from seed 1; Random draws that one stream.
func TestXorShiftStream(t *testing.T) {
	one := NewXorShift(1)
	if v := one.Next(); v != 0x47e4ce4b896cdd1d {
		t.Errorf("first output from seed 1 = %#x", v)
	}
	a, b := NewXorShift(0), NewXorShift(0x9e3779b97f4a7c15)
	r := NewRandom(1<<31, 0)
	for i := uint64(0); i < 100; i++ {
		v := a.Next()
		if v != b.Next() {
			t.Fatal("seed 0 is not replaced by the fixed constant")
		}
		inj, ok := r.Decide(i, emu.Trace{})
		if ok != (uint32(v) < 1<<31) || (ok && inj.Bit != uint8(v>>32)%32) {
			t.Fatalf("draw %d: Random does not follow the XorShift stream", i)
		}
	}
}

func TestRandomRateRoughlyCorrect(t *testing.T) {
	// p = 1/8 per instruction.
	r := NewRandom(1<<29, 123)
	n := uint64(40000)
	for i := uint64(0); i < n; i++ {
		r.Decide(i, emu.Trace{})
	}
	rate := float64(r.Injected()) / float64(n)
	if rate < 0.10 || rate > 0.15 {
		t.Errorf("rate = %.4f, want ~0.125", rate)
	}
}

func TestApplyTargetsResultForALU(t *testing.T) {
	tr := emu.Trace{
		Inst:      isa.Instruction{Op: isa.OpAdd},
		Result:    100,
		NextPC:    200,
		HasResult: true,
	}
	res, next, addr, sv := Apply(Injection{Bit: 3}, tr)
	if res != 100^8 {
		t.Errorf("result = %d", res)
	}
	if next != 200 || addr != 0 || sv != 0 {
		t.Error("other fields must be untouched")
	}
}

func TestApplyTargetsStoreValue(t *testing.T) {
	tr := emu.Trace{
		Inst:       isa.Instruction{Op: isa.OpSw},
		StoreValue: 7,
		Addr:       0x100,
	}
	_, _, addr, sv := Apply(Injection{Bit: 0}, tr)
	if sv != 6 {
		t.Errorf("store value = %d", sv)
	}
	if addr != 0x100 {
		t.Error("address untouched for result-target faults")
	}
}

func TestApplyTargetsAddress(t *testing.T) {
	tr := emu.Trace{
		Inst: isa.Instruction{Op: isa.OpLw},
		Addr: 0x100,
	}
	_, _, addr, _ := Apply(Injection{Bit: 2, Struct: StructLSQAddr}, tr)
	if addr != 0x104 {
		t.Errorf("addr = %#x", addr)
	}
}

func TestApplyTargetsBranchNextPC(t *testing.T) {
	tr := emu.Trace{
		Inst:   isa.Instruction{Op: isa.OpBeq},
		NextPC: 0x200,
		Taken:  true,
	}
	_, next, _, _ := Apply(Injection{Bit: 4}, tr)
	if next != 0x200^16 {
		t.Errorf("nextPC = %#x", next)
	}
}

func TestApplyJalFaultsLinkValue(t *testing.T) {
	tr := emu.Trace{
		Inst:      isa.Instruction{Op: isa.OpJal},
		NextPC:    0x300,
		Result:    0x104,
		HasResult: true,
	}
	res, next, _, _ := Apply(Injection{Bit: 1}, tr)
	if res != 0x104^2 {
		t.Errorf("link = %#x", res)
	}
	if next != 0x300 {
		t.Error("jal target untouched (result carries the fault)")
	}
}

// Property: Apply flips exactly one bit across the four outcome fields.
func TestApplyFlipsExactlyOneBit(t *testing.T) {
	popcount := func(x uint32) int {
		n := 0
		for x != 0 {
			x &= x - 1
			n++
		}
		return n
	}
	ops := []isa.Op{isa.OpAdd, isa.OpLw, isa.OpSw, isa.OpBeq, isa.OpJ, isa.OpJal, isa.OpHalt}
	f := func(opIdx, bit uint8, result, next, addr, sv uint32, tgt bool) bool {
		op := ops[int(opIdx)%len(ops)]
		tr := emu.Trace{
			Inst:       isa.Instruction{Op: op},
			Result:     result,
			NextPC:     next,
			Addr:       addr,
			StoreValue: sv,
			HasResult:  op.WritesRd(),
			Taken:      op.IsControl(),
		}
		inj := Injection{Bit: bit % 32}
		if tgt && op.IsMem() {
			inj.Struct = StructLSQAddr
		}
		r2, n2, a2, s2 := Apply(inj, tr)
		flips := popcount(r2^tr.Result) + popcount(n2^tr.NextPC) + popcount(a2^tr.Addr) + popcount(s2^tr.StoreValue)
		return flips == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}
