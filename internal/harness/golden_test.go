package harness

import (
	"testing"

	"reese/internal/emu"
	"reese/internal/workload"
)

// TestGoldenRecordMatchesEmulator pins the golden record — the one
// reference execution trial planning, checkpoint splicing and triage
// all read — against an independent emulator run of the same program:
// every entry must equal that instruction's emu.Step trace, and the
// record must end exactly where the emulator halts.
func TestGoldenRecordMatchesEmulator(t *testing.T) {
	spec, _ := CampaignSpec{}.withDefaults()
	for _, name := range workload.Names() {
		wspec, _ := workload.ByName(name)
		g, prog, err := goldenScan(wspec, spec.TargetInsts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := emu.New(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if uint64(len(g.insts)) != g.total {
			t.Fatalf("%s: %d record entries for %d golden insts", name, len(g.insts), g.total)
		}
		for i := range g.insts {
			tr, err := m.Step()
			if err != nil {
				t.Fatalf("%s: emulator stopped at inst %d of %d: %v", name, i, g.total, err)
			}
			gi := g.insts[i]
			if gi.pc != tr.PC {
				t.Fatalf("%s inst %d: pc %#x, emulator %#x", name, i, gi.pc, tr.PC)
			}
			if tr.HasResult && gi.result != tr.Result {
				t.Fatalf("%s inst %d: result %#x, emulator %#x", name, i, gi.result, tr.Result)
			}
			dest, fp := uint8(destNone), false
			if r, isFP, ok := tr.DestReg(); ok && (isFP || r != 0) {
				dest, fp = uint8(r), isFP
			}
			if gi.dest != dest || gi.destFP != fp {
				t.Fatalf("%s inst %d: dest (%d, fp=%v), emulator (%d, fp=%v)", name, i, gi.dest, gi.destFP, dest, fp)
			}
			if tr.Inst.Op.IsMem() {
				if gi.addr != tr.Addr || uint32(gi.width) != tr.MemWidth || gi.storeValue != tr.StoreValue {
					t.Fatalf("%s inst %d: mem (%#x, %d, %#x), emulator (%#x, %d, %#x)",
						name, i, gi.addr, gi.width, gi.storeValue, tr.Addr, tr.MemWidth, tr.StoreValue)
				}
			}
		}
		if !m.Halted() || m.InstCount() != g.total {
			t.Fatalf("%s: emulator halted=%v at %d insts, golden total %d", name, m.Halted(), m.InstCount(), g.total)
		}
	}
}
