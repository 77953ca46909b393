package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/isa"
)

// triageTestSpec is a small campaign guaranteed to produce escapes:
// out-of-sphere oracle-site structures (regfile, fetch-pc) on the REESE
// machine yield SDCs and hangs the comparator cannot catch.
func triageTestSpec() CampaignSpec {
	return CampaignSpec{
		Workload: "li",
		Machine:  config.Starting().WithReese(),
		Structures: []fault.Struct{
			fault.StructResult, fault.StructRegFile, fault.StructFetchPC, fault.StructMemWord,
		},
		Injections: 60,
		Seed:       7,
		Triage:     true,
	}
}

// TestTriageReplayDeterminism is the triage property test: the replay
// must reproduce the original trial exactly (outcome, commit digest,
// hang cycle count), every escape must carry a triage record with a
// trace, and the whole campaign — triage attachments included — must be
// byte-identical across parallelism and checkpoint-interval choices.
func TestTriageReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration campaign sweep")
	}
	type variant struct {
		name     string
		parallel int
		interval uint64
	}
	variants := []variant{
		{"p1-default", 1, 0},
		{"p8-default", 8, 0},
		{"p1-ck64", 1, 64},
		{"p8-ck64", 8, 64},
	}
	var refJSONL string
	var refRep *CampaignReport
	for _, v := range variants {
		spec := triageTestSpec()
		spec.CheckpointInterval = v.interval
		rep, err := Campaign(spec, Options{Parallel: v.parallel})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if refJSONL == "" {
			refJSONL, refRep = buf.String(), rep
			continue
		}
		if buf.String() != refJSONL {
			t.Errorf("%s: triaged JSONL differs from %s", v.name, variants[0].name)
		}
		if rep.Triaged != refRep.Triaged || rep.Diverged != refRep.Diverged {
			t.Errorf("%s: triage counts (%d, %d) differ from (%d, %d)",
				v.name, rep.Triaged, rep.Diverged, refRep.Triaged, refRep.Diverged)
		}
	}

	escapes := 0
	for i := range refRep.Trials {
		tr := &refRep.Trials[i]
		switch tr.Outcome {
		case "sdc", "hang":
			escapes++
			if tr.Triage == nil {
				t.Errorf("trial %d (%s, %s): escaped without a triage record", tr.Index, tr.Structure, tr.Outcome)
				continue
			}
			// The replay reproduced the original run exactly: outcome,
			// cycles, committed count, and final digests (ReplayOK is
			// computed from precisely those comparisons).
			if !tr.Triage.ReplayOK {
				t.Errorf("trial %d (%s, %s): triage replay did not reproduce the original", tr.Index, tr.Structure, tr.Outcome)
			}
			if len(tr.Triage.Trace) == 0 {
				t.Errorf("trial %d: triage record has no trace blob", tr.Index)
			} else if !strings.Contains(string(tr.Triage.Trace), `"FAULT`) {
				t.Errorf("trial %d: triage trace has no injection marker", tr.Index)
			}
			if tr.Outcome == "sdc" && tr.Triage.FirstDivergence == nil {
				t.Errorf("trial %d (%s): SDC with no first-divergence attribution", tr.Index, tr.Structure)
			}
			if d := tr.Triage.FirstDivergence; d != nil && d.Seq < tr.Seq {
				t.Errorf("trial %d: first divergence at seq %d precedes the victim seq %d", tr.Index, d.Seq, tr.Seq)
			}
			if tr.Outcome == "hang" && tr.Triage.HangPeriod == 0 {
				t.Errorf("trial %d (%s): hang with no detected loop period", tr.Index, tr.Structure)
			}
		default:
			if tr.Triage != nil {
				t.Errorf("trial %d (%s): non-escape carries a triage record", tr.Index, tr.Outcome)
			}
		}
	}
	if escapes == 0 {
		t.Fatal("campaign produced no escapes; the triage test exercised nothing")
	}
	if refRep.Triaged == 0 || refRep.Diverged == 0 {
		t.Errorf("report triage totals empty: triaged %d, diverged %d", refRep.Triaged, refRep.Diverged)
	}
}

// TestTriageLeavesCampaignUnchanged pins the acceptance contract: a
// triaged campaign's JSONL, minus the triage attachments, is
// byte-identical to the untriaged run of the same spec, and the report
// differs only in the triage counters.
func TestTriageLeavesCampaignUnchanged(t *testing.T) {
	spec := triageTestSpec()
	triaged, err := Campaign(spec, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec.Triage = false
	plain, err := Campaign(spec, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(triaged.Trials) != len(plain.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(triaged.Trials), len(plain.Trials))
	}
	for i := range triaged.Trials {
		stripped := triaged.Trials[i]
		stripped.Triage = nil
		a, _ := json.Marshal(&stripped)
		b, _ := json.Marshal(&plain.Trials[i])
		if !bytes.Equal(a, b) {
			t.Errorf("trial %d: record differs beyond the triage attachment:\n triaged: %s\n plain:   %s", i, a, b)
		}
	}
	// The untriaged report must not grow triage fields (omitempty keeps
	// its JSON byte-identical to pre-triage builds).
	raw, _ := json.Marshal(plain)
	if bytes.Contains(raw, []byte("triaged")) || bytes.Contains(raw, []byte("diverge")) {
		t.Errorf("untriaged report JSON leaks triage fields: %s", raw)
	}
}

// TestCheckCommit covers every branch of the triage lockstep check
// against a hand-built golden record, including a retire past the
// golden halt, which no campaign test is guaranteed to reach.
func TestCheckCommit(t *testing.T) {
	g := &golden{
		total: 4,
		insts: []goldenInst{
			{pc: 0x1000, result: 7, dest: 3},
			{pc: 0x1004, addr: 0x2000, storeValue: 9, width: 4, dest: destNone},
			{pc: 0x1008, result: 0x3f800000, dest: 2, destFP: true},
			{pc: 0x100c, dest: destNone}, // writes r0
		},
	}
	add := emu.Trace{PC: 0x1000, Inst: isa.Instruction{Op: isa.OpAdd, Rd: 3}, HasResult: true}
	sw := emu.Trace{PC: 0x1004, Inst: isa.Instruction{Op: isa.OpSw}}
	fadd := emu.Trace{PC: 0x1008, Inst: isa.Instruction{Op: isa.OpFadd, Rd: 2}, HasResult: true}
	addR0 := emu.Trace{PC: 0x100c, Inst: isa.Instruction{Op: isa.OpAdd, Rd: 0}, HasResult: true}
	wrongPC := add
	wrongPC.PC = 0x1010
	cases := []struct {
		name                       string
		seq                        uint64
		tr                         emu.Trace
		resultP, addrP, storeValue uint32
		want                       *Divergence
	}{
		{"agree-register", 0, add, 7, 0, 0, nil},
		{"agree-store", 1, sw, 0, 0x2000, 9, nil},
		{"agree-fp", 2, fadd, 0x3f800000, 0, 0, nil},
		{"pc", 0, wrongPC, 7, 0, 0, &Divergence{Seq: 0, Kind: "pc", Golden: 0x1000, Got: 0x1010}},
		{"register-int", 0, add, 8, 0, 0, &Divergence{Seq: 0, Kind: "register", Reg: 3, Golden: 7, Got: 8}},
		{"register-fp", 2, fadd, 0, 0, 0, &Divergence{Seq: 2, Kind: "register", Reg: 2, Golden: 0x3f800000, Got: 0}},
		{"r0-skipped", 3, addR0, 123, 0, 0, nil},
		{"store-addr", 1, sw, 0, 0x2004, 9, &Divergence{Seq: 1, Kind: "store", Golden: 0x2000, Got: 0x2004}},
		{"store-value", 1, sw, 0, 0x2000, 10, &Divergence{Seq: 1, Kind: "store", Golden: 9, Got: 10}},
		{"past-golden-halt", 4, addR0, 0, 0, 0, &Divergence{Seq: 4, Kind: "pc", Got: 0x100c}},
	}
	for _, c := range cases {
		got := g.checkCommit(c.seq, c.tr, c.resultP, c.addrP, c.storeValue)
		switch {
		case got == nil && c.want == nil:
		case got == nil || c.want == nil || *got != *c.want:
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestTriageDivergenceNotBeforeVictim holds triage to its contract on a
// store-heavy program: no escape's first divergent commit may precede
// the victim instruction. A checkpoint's memory image already holds the
// stores of instructions fetched but not yet committed at the boundary
// (the pipeline's oracle runs ahead of retire), so a reference seeded
// from that image instead of the golden record reads future values and
// reports spurious divergences before the fault.
func TestTriageDivergenceNotBeforeVictim(t *testing.T) {
	rep, err := Campaign(CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting().WithReese(),
		Structures: []fault.Struct{fault.StructMemWord},
		Injections: 40,
		Seed:       7,
		Triage:     true,
	}, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for _, tr := range rep.Trials {
		if tr.Triage == nil || tr.Triage.FirstDivergence == nil {
			continue
		}
		diverged++
		if d := tr.Triage.FirstDivergence; d.Seq < tr.Seq {
			t.Errorf("trial %d: first %s divergence at seq %d precedes the victim seq %d", tr.Index, d.Kind, d.Seq, tr.Seq)
		}
	}
	if diverged == 0 {
		t.Fatal("campaign produced no attributed escapes; the check exercised nothing")
	}
}
