package pipeline

// Permanent functional-unit faults and RESO (recomputation with shifted
// operands, the paper's §3 reference [15]).
//
// A stuck bit in one functional unit corrupts every computation that
// unit performs. Plain re-execution detects it only when the P- and
// R-stream executions land on DIFFERENT units; when both use the faulty
// one, the two results are corrupted identically and the comparator is
// blind. RESO breaks the symmetry: the redundant computation runs on
// shifted operands, so the same stuck bit lands in a different result
// position and the comparison fails.

import (
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/program"
)

// singleALU forces every integer ALU operation (P and R) onto one unit,
// the worst case for plain re-execution.
func singleALU() config.Machine {
	m := config.Starting()
	m.FU.IntALU = 1
	m.Width = 2
	m.IssueWidth = 2
	return m
}

func stuckALU() fault.StuckUnit {
	return fault.StuckUnit{Kind: uint8(fu.IntALU), Unit: 0, Bit: 5}
}

// aluLoop is a small all-ALU kernel (the branch resolves on the ALU too,
// but branches carry no comparable result, so corruption lands on the
// adds).
const aluLoop = `
	li r9, 200
	li r1, 1
loop:
	add r1, r1, r9
	xor r1, r1, r9
	addi r9, r9, -1
	bne r9, r0, loop
	halt
`

func TestStuckUnitBlindSpotWithoutRESO(t *testing.T) {
	cpu, err := New(singleALU().WithReese(), mustProg(t, aluLoop), stuckALU())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// With one ALU, both executions are corrupted identically: the
	// comparator sees matching (wrong) results everywhere.
	if res.FaultsDetected != 0 {
		t.Errorf("plain re-execution on the same faulty unit detected %d faults; it should be blind", res.FaultsDetected)
	}
	if !res.Halted {
		t.Error("the program should run to completion, silently corrupted")
	}
}

func TestStuckUnitDetectedWithRESO(t *testing.T) {
	cpu, err := New(singleALU().WithReese().WithRESO(), mustProg(t, aluLoop), stuckALU())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected == 0 {
		t.Fatal("RESO should expose the stuck unit")
	}
	// A permanent fault keeps failing at the same PC after replay: the
	// machine must stop and report it (§4.3).
	if !res.PermError {
		t.Error("recurring mismatch should escalate to a permanent-error stop")
	}
}

func TestStuckUnitDetectedAcrossUnitsWithoutRESO(t *testing.T) {
	// With 4 ALUs, the R-stream execution frequently lands on a healthy
	// unit, so even plain re-execution catches the stuck bit.
	cpu, err := New(config.Starting().WithReese(), mustProg(t, aluLoop), stuckALU())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected == 0 {
		t.Error("with multiple ALUs the P and R executions diverge onto different units; the fault should be caught")
	}
}

func TestRESOCleanRunStillVerifies(t *testing.T) {
	// RESO must not change behaviour on a healthy machine.
	src := loopProgram(300)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting().WithReese().WithRESO(), src, nil)
	if !res.Halted || res.Committed != want {
		t.Fatalf("halted=%v committed=%d want=%d", res.Halted, res.Committed, want)
	}
	if res.Reese.Mismatches != 0 {
		t.Errorf("clean RESO run mismatched %d times", res.Reese.Mismatches)
	}
}

func TestRESOStillCatchesTransients(t *testing.T) {
	src := loopProgram(200)
	inj := &fault.AtSeq{Seq: 100, Bit: 3}
	res := runOn(t, config.Starting().WithReese().WithRESO(), src, inj)
	if res.FaultsDetected != 1 {
		t.Errorf("RESO machine detected %d transients, want 1", res.FaultsDetected)
	}
}

func TestStuckMemPortCorruptsLoads(t *testing.T) {
	// A stuck memory port corrupts loaded values; REESE's comparator
	// checks the loaded value against the re-read and catches it when
	// the re-read uses the other port.
	src := `
		li r9, 300
		la r1, buf
	loop:
		lw r2, 0(r1)
		add r3, r2, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.word 42
	`
	cpu, err := New(config.Starting().WithReese(), mustProg(t, src), fault.StuckUnit{Kind: uint8(fu.MemPort), Unit: 0, Bit: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected == 0 {
		t.Error("stuck memory port should be caught by value comparison")
	}
}

func TestStuckUnitOnBaselineIsInvisible(t *testing.T) {
	cpu, err := New(singleALU(), mustProg(t, aluLoop), stuckALU())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected != 0 || res.PermError {
		t.Error("the baseline has no comparator; a stuck unit corrupts silently")
	}
	if !res.Halted {
		t.Error("should complete (corrupted)")
	}
}

// TestStuckUnitForkNeverConverges checks convergedAt's stuck-unit
// refusal through the public Fork: a fork carrying a stuck unit
// differs from its checkpoint in past unit assignments the entry
// comparison ignores, so it must never be judged converged, while a
// clean fork of the same checkpoint is.
func TestStuckUnitForkNeverConverges(t *testing.T) {
	cpu, err := New(config.Starting().WithReese(), mustProg(t, aluLoop), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	var img *program.Memory
	cpu.SetBoundaryHook([]uint64{300}, func(c *CPU) bool {
		ck, img = c.Snapshot(nil), c.OracleMemory().Clone()
		return true
	})
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("the run never reached the checkpoint boundary")
	}
	clean, err := ck.Fork(img.Clone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Converged(clean, nil) {
		t.Fatal("a clean fork must converge with its own checkpoint")
	}
	stuck, err := ck.Fork(img.Clone(), stuckALU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Converged(stuck, nil) {
		t.Error("a fork carrying a stuck unit was judged converged")
	}
	// Recycling the stuck fork's machine must not carry the unit over.
	again, err := ck.Fork(img.Clone(), nil, stuck)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Converged(again, nil) {
		t.Error("a clean fork into a recycled stuck machine did not converge")
	}
}
