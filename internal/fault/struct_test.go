package fault

import (
	"testing"

	"reese/internal/asm"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/program"
)

func TestStructNamesRoundTrip(t *testing.T) {
	for _, st := range Structures(true) {
		got, ok := ParseStruct(st.String())
		if !ok || got != st {
			t.Errorf("ParseStruct(%q) = %v, %v; want %v, true", st.String(), got, ok, st)
		}
	}
	if _, ok := ParseStruct("no-such-structure"); ok {
		t.Error("ParseStruct accepted garbage")
	}
}

func TestSphereMembership(t *testing.T) {
	in := map[Struct]bool{
		StructResult:       true,
		StructLSQAddr:      true,
		StructLSQStoreData: true,
		StructRSQOperand:   true,
		StructRSQResult:    true,
		StructRegFile:      false,
		StructFetchPC:      false,
		StructComparator:   false,
	}
	for st, want := range in {
		if st.InSphere() != want {
			t.Errorf("%s.InSphere() = %v, want %v", st, st.InSphere(), want)
		}
	}
}

func TestStructuresExcludeRSQWithoutQueue(t *testing.T) {
	for _, st := range Structures(false) {
		if st.NeedsRSQ() {
			t.Errorf("Structures(false) includes RSQ-only structure %s", st)
		}
	}
	have := map[Struct]bool{}
	for _, st := range Structures(true) {
		have[st] = true
	}
	for _, want := range []Struct{StructRSQOperand, StructRSQResult, StructComparator} {
		if !have[want] {
			t.Errorf("Structures(true) missing %s", want)
		}
	}
}

// aluTrace is a comparable-outcome instruction; storeTrace a store.
func aluTrace() emu.Trace {
	return emu.Trace{Inst: isa.Instruction{Op: isa.OpAdd}, Result: 42, HasResult: true}
}

func storeTrace() emu.Trace {
	return emu.Trace{Inst: isa.Instruction{Op: isa.OpSw}, Addr: 0x100, StoreValue: 7}
}

func TestAtStructSkipsForwardToEligibleVictim(t *testing.T) {
	// A store-data fault aimed at seq 0 must hold fire across non-store
	// instructions and land on the first store.
	inj := &AtStruct{Struct: StructLSQStoreData, Seq: 0, Bit: 3}
	for seq := uint64(0); seq < 4; seq++ {
		if _, fired := inj.Decide(seq, aluTrace()); fired {
			t.Fatalf("fired on non-store at seq %d", seq)
		}
	}
	got, fired := inj.Decide(4, storeTrace())
	if !fired {
		t.Fatal("did not fire on the first store")
	}
	if got.Struct != StructLSQStoreData || got.Bit != 3 {
		t.Errorf("injection = %+v", got)
	}
	if !inj.Fired() || inj.FiredSeq() != 4 {
		t.Errorf("Fired = %v, FiredSeq = %d; want true, 4", inj.Fired(), inj.FiredSeq())
	}
	// One-shot: it must never fire again, even on eligible victims (the
	// recovery replay re-presents the same sequence numbers).
	if _, again := inj.Decide(5, storeTrace()); again {
		t.Error("fired twice")
	}
}

// oracleSite builds the oracle and memory hierarchy the oracle-step
// site corrupts: a machine on a one-word-of-data program, with dirty
// tracking on, and the starting configuration's hierarchy (L2 with
// SECDED when ecc) backed by the machine's memory. data is the data
// word's address.
func oracleSite(t *testing.T, ecc bool) (m *emu.Machine, h *mem.Hierarchy, data uint32) {
	t.Helper()
	prog, err := asm.Assemble("site", "\thalt\n.data\nw:\n\t.word 0x5a5a5a5a\n")
	if err != nil {
		t.Fatal(err)
	}
	if m, err = emu.New(prog); err != nil {
		t.Fatal(err)
	}
	m.Mem().EnableDirtyTracking()
	cfg := config.Starting().Memory
	cfg.L2.ECC = ecc
	if h, err = mem.NewHierarchy(cfg); err != nil {
		t.Fatal(err)
	}
	h.SetWordPlane(m.Mem())
	return m, h, program.DataBase
}

func TestAtStructOracleSites(t *testing.T) {
	m, h, _ := oracleSite(t, false)
	pc := m.PC()
	inj := &AtStruct{Struct: StructFetchPC, Seq: 10, Bit: 31}
	if inj.OracleStep(9, 0, m, h) {
		t.Error("fired before Seq")
	}
	if !inj.OracleStep(10, 0, m, h) {
		t.Fatal("did not fire at Seq")
	}
	if got := m.PC() ^ pc; got != 1<<31 {
		t.Errorf("pc mask = %#x, want bit 31", got)
	}
	if inj.OracleStep(11, 0, m, h) {
		t.Error("fired twice")
	}

	m, h, _ = oracleSite(t, false)
	before := m.Reg(17)
	reg := &AtStruct{Struct: StructRegFile, Seq: 0, Bit: 5, Reg: 17}
	if !reg.OracleStep(0, 0, m, h) {
		t.Fatal("regfile fault did not fire")
	}
	if got := m.Reg(17) ^ before; got != 1<<5 {
		t.Errorf("corrupted r17 with %#x, want bit 5", got)
	}

	// r0 is hardwired zero: a fault aimed there must never fire.
	zero := &AtStruct{Struct: StructRegFile, Seq: 0, Bit: 5, Reg: 0}
	for i := uint64(0); i < 8; i++ {
		if zero.OracleStep(i, 0, m, h) {
			t.Fatal("fired on r0")
		}
	}
}

func TestAtStructMemorySites(t *testing.T) {
	t.Run("non-resident line polls", func(t *testing.T) {
		m, h, data := oracleSite(t, false)
		inj := &AtStruct{Struct: StructL1DTag, Seq: 0, Bit: 3, Addr: data}
		for i := uint64(0); i < 4; i++ {
			if inj.OracleStep(i, i, m, h) {
				t.Fatalf("fired at step %d with the victim line not resident", i)
			}
		}
		h.L1D.Access(data, false)
		if !inj.OracleStep(4, 4, m, h) || inj.FiredSeq() != 4 {
			t.Fatalf("fired=%v at %d, want the first step with the line resident (4)", inj.Fired(), inj.FiredSeq())
		}
	})
	t.Run("l1d-dirty waits for the last store", func(t *testing.T) {
		m, h, data := oracleSite(t, false)
		h.L1D.Access(data, true)
		inj := &AtStruct{Struct: StructL1DDirty, Seq: 0, Seq2: 5, Addr: data}
		for committed := uint64(0); committed <= 5; committed++ {
			if inj.OracleStep(committed, committed, m, h) {
				t.Fatalf("cleared the dirty bit at committed=%d, before Seq2 retired", committed)
			}
		}
		if !inj.OracleStep(6, 6, m, h) {
			t.Fatal("did not fire once committed > Seq2")
		}
	})
	t.Run("l2-line on SECDED", func(t *testing.T) {
		for _, tc := range []struct {
			bit                 uint8
			corrected, detected bool
		}{{3, true, false}, {40, false, true}} {
			m, h, data := oracleSite(t, true)
			h.L2.Access(data, false)
			inj := &AtStruct{Struct: StructL2Line, Seq: 0, Bit: tc.bit, Addr: data}
			if !inj.OracleStep(0, 0, m, h) {
				t.Fatalf("bit %d: did not fire on a resident L2 line", tc.bit)
			}
			if inj.EccCorrected() != tc.corrected || inj.EccDetected() != tc.detected {
				t.Errorf("bit %d: corrected=%v detected=%v, want %v %v",
					tc.bit, inj.EccCorrected(), inj.EccDetected(), tc.corrected, tc.detected)
			}
		}
	})
	t.Run("mem-word", func(t *testing.T) {
		m, h, data := oracleSite(t, false)
		orig, _ := m.Mem().ReadWord(data)
		inj := &AtStruct{Struct: StructMemWord, Seq: 0, Bit: 4, Addr: data + 2}
		if !inj.OracleStep(0, 0, m, h) {
			t.Fatal("did not fire")
		}
		if got, _ := m.Mem().ReadWord(data); got != orig^1<<4 {
			t.Errorf("word = %#x, want %#x", got, orig^1<<4)
		}
		if !m.Mem().DirtyPages()[data>>mem.PageShift] {
			t.Error("the flip bypassed dirty tracking: its page is not dirty")
		}
	})
}

func TestAtStructComparatorFaultBlindsTheLane(t *testing.T) {
	// A comparator fault corrupts the checked copy AND masks the same
	// bit out of the comparison — the defining pairing that makes the
	// corruption commit undetected.
	inj := &AtStruct{Struct: StructComparator, Seq: 0, Bit: 9}
	cor, fired := inj.RSQEnqueue(0, aluTrace())
	if !fired {
		t.Fatal("did not fire")
	}
	if cor.ResultMask != 1<<9 || cor.CompIgnoreMask != 1<<9 {
		t.Errorf("result mask %#x, ignore mask %#x; want bit 9 in both", cor.ResultMask, cor.CompIgnoreMask)
	}

	// A plain RSQ-result fault corrupts the copy but leaves the
	// comparator intact, so the mismatch is catchable.
	res := &AtStruct{Struct: StructRSQResult, Seq: 0, Bit: 9}
	cor, fired = res.RSQEnqueue(0, aluTrace())
	if !fired {
		t.Fatal("rsq-result did not fire")
	}
	if cor.ResultMask != 1<<9 || cor.CompIgnoreMask != 0 {
		t.Errorf("rsq-result masks = %+v, want corrupt bit 9, no ignore", cor)
	}
}

func TestAtStructOperandSlotFollowsReads(t *testing.T) {
	// sw reads rs1 (base) and rs2 (data); the bit parity picks the slot.
	even := &AtStruct{Struct: StructRSQOperand, Seq: 0, Bit: 2}
	cor, fired := even.RSQEnqueue(0, storeTrace())
	if !fired || cor.OperandAMask == 0 || cor.OperandBMask != 0 {
		t.Errorf("even bit: %+v, want operand A corrupted", cor)
	}
	odd := &AtStruct{Struct: StructRSQOperand, Seq: 0, Bit: 3}
	cor, fired = odd.RSQEnqueue(0, storeTrace())
	if !fired || cor.OperandBMask == 0 || cor.OperandAMask != 0 {
		t.Errorf("odd bit: %+v, want operand B corrupted", cor)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeDetected:  "detected",
		OutcomeRecovered: "recovered",
		OutcomeSDC:       "sdc",
		OutcomeMasked:    "masked",
		OutcomeHang:      "hang",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}
