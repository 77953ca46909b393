package pipeline

import (
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
)

// A corrupted fetch PC marches the oracle off the text segment: the
// trace stream ends without a halt, nothing commits again, and only the
// no-commit watchdog can end the run. It must terminate promptly and
// classify the run as hanged — not error, not spin to the cycle cap.
func TestWatchdogConvertsFetchPCWedgeToHang(t *testing.T) {
	src := loopProgram(2_000)
	inj := &fault.AtStruct{Struct: fault.StructFetchPC, Seq: 500, Bit: 30}
	cpu, err := New(config.Starting().WithReese(), mustProg(t, src), inj)
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetHangLimit(2_000)
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatalf("a wedge must be a classifiable outcome, not an error: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("fetch-pc fault never fired")
	}
	if !res.Hanged {
		t.Error("watchdog did not flag the wedged run as hanged")
	}
	if res.Halted {
		t.Error("a wedged run cannot also report a clean halt")
	}
	want := oracleCount(t, src)
	if res.Committed >= want {
		t.Errorf("committed %d of %d — the wedge should cut the run short", res.Committed, want)
	}
}

func TestWatchdogQuietOnCleanRuns(t *testing.T) {
	src := loopProgram(300)
	for _, cfg := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
		res := runOn(t, cfg, src, nil)
		if res.Hanged {
			t.Errorf("%s: clean run flagged as hanged", cfg.Name)
		}
		if !res.Halted {
			t.Errorf("%s: clean run did not halt", cfg.Name)
		}
	}
}

// The commit-side shadow digest must agree with an independent emulator
// run on a fault-free simulation — it is the baseline the campaign
// classifier measures SDC against, so any drift here poisons every
// outcome.
func TestCommitDigestMatchesEmulatorOnCleanRun(t *testing.T) {
	src := `
		li r1, 40
		li r2, 1000
	loop:
		add r3, r2, r1
		sw r3, 0(r2)
		lw r4, 0(r2)
		xor r5, r4, r3
		addi r2, r2, 4
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`
	prog := mustProg(t, src)
	m, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	want := m.Digest()

	for _, cfg := range schemeMachines() {
		cpu, err := New(cfg, mustProg(t, src), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatalf("%s: did not halt", cfg.Name)
		}
		if got := cpu.CommitDigest(); got != want {
			t.Errorf("%s: commit digest diverges from emulator\n got %+v\nwant %+v", cfg.Name, got, want)
		}
		if got := cpu.OracleDigest(); got != want {
			t.Errorf("%s: oracle digest diverges from emulator\n got %+v\nwant %+v", cfg.Name, got, want)
		}
	}
}

// An in-sphere latch fault must end as recovered: detected by the
// comparator, replayed, and the final state byte-identical to golden.
func TestRecoveredRunRestoresGoldenDigest(t *testing.T) {
	src := loopProgram(500)
	prog := mustProg(t, src)
	m, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	gold := m.Digest()

	inj := &fault.AtStruct{Struct: fault.StructResult, Seq: 200, Bit: 13}
	cpu, err := New(config.Starting().WithReese(), mustProg(t, src), inj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected != 1 {
		t.Fatalf("detected %d faults, want 1", res.FaultsDetected)
	}
	if got := cpu.CommitDigest(); got != gold {
		t.Errorf("recovered run's commit digest diverges from golden\n got %+v\nwant %+v", got, gold)
	}
}
