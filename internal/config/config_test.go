package config

import (
	"strings"
	"testing"

	"reese/internal/fu"
	"reese/internal/mem"
)

// TestStartingMatchesTable1 pins the starting configuration to the
// paper's Table 1.
func TestStartingMatchesTable1(t *testing.T) {
	m := Starting()
	if err := m.Validate(); err != nil {
		t.Fatalf("starting config invalid: %v", err)
	}
	if m.FetchQueueSize != 16 {
		t.Errorf("fetch queue = %d, want 16", m.FetchQueueSize)
	}
	if m.Width != 8 {
		t.Errorf("width = %d, want 8 (max IPC for other stages)", m.Width)
	}
	if m.RUUSize != 16 || m.LSQSize != 8 {
		t.Errorf("RUU/LSQ = %d/%d, want 16/8", m.RUUSize, m.LSQSize)
	}
	if m.FU.IntALU != 4 || m.FU.IntMult != 1 || m.FU.MemPort != 2 {
		t.Errorf("FUs = %+v, want 4 IntALU / 1 IntMult / 2 ports", m.FU)
	}
	if m.Memory.L1D.SizeBytes != 32*1024 || m.Memory.L1D.Assoc != 2 || m.Memory.L1D.HitLatency != 2 {
		t.Errorf("L1D = %+v, want 32 KB 2-way 2-cycle", m.Memory.L1D)
	}
	if m.Memory.L1I.SizeBytes != 32*1024 || m.Memory.L1I.Assoc != 2 || m.Memory.L1I.HitLatency != 2 {
		t.Errorf("L1I = %+v, want 32 KB 2-way 2-cycle", m.Memory.L1I)
	}
	if m.Memory.L2.SizeBytes != 512*1024 || m.Memory.L2.Assoc != 4 || m.Memory.L2.HitLatency != 12 {
		t.Errorf("L2 = %+v, want 512 KB 4-way 12-cycle", m.Memory.L2)
	}
	if m.Reese.Enabled {
		t.Error("starting config must be the baseline")
	}
	if m.Reese.RSQSize != 32 {
		t.Errorf("RSQ = %d, want the paper's initial 32", m.Reese.RSQSize)
	}
}

func TestWithReese(t *testing.T) {
	m := Starting().WithReese()
	if !m.Reese.Enabled {
		t.Error("not enabled")
	}
	if !strings.Contains(m.Name, "reese") {
		t.Errorf("name = %q", m.Name)
	}
	if Starting().Reese.Enabled {
		t.Error("WithReese must not mutate the base")
	}
}

func TestWithSpares(t *testing.T) {
	m := Starting().WithSpares(2, 1)
	if m.FU.IntALU != 6 || m.FU.IntMult != 2 {
		t.Errorf("FUs = %+v", m.FU)
	}
	if !strings.Contains(m.Name, "2ALU") || !strings.Contains(m.Name, "1Mult") {
		t.Errorf("name = %q", m.Name)
	}
}

func TestWithRUUHalvesLSQ(t *testing.T) {
	m := Starting().WithRUU(64)
	if m.RUUSize != 64 || m.LSQSize != 32 {
		t.Errorf("RUU/LSQ = %d/%d", m.RUUSize, m.LSQSize)
	}
}

func TestWithWidthScalesIssue(t *testing.T) {
	m := Starting().WithWidth(16)
	if m.Width != 16 || m.IssueWidth != 16 {
		t.Errorf("width/issue = %d/%d", m.Width, m.IssueWidth)
	}
}

func TestWithMemPorts(t *testing.T) {
	m := Starting().WithMemPorts(4)
	if m.FU.MemPort != 4 {
		t.Errorf("ports = %d", m.FU.MemPort)
	}
}

func TestWithFUs(t *testing.T) {
	m := Starting().WithFUs(fu.Config{IntALU: 8, IntMult: 2, MemPort: 4})
	if m.FU.IntALU != 8 || m.FU.IntMult != 2 || m.FU.MemPort != 4 {
		t.Errorf("FUs = %+v", m.FU)
	}
}

func TestWithRSQAndPartial(t *testing.T) {
	m := Starting().WithReese().WithRSQ(64).WithPartialReexec(2)
	if m.Reese.RSQSize != 64 || m.Reese.ReexecuteEvery != 2 {
		t.Errorf("reese cfg = %+v", m.Reese)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(Machine) Machine{
		func(m Machine) Machine { m.FetchQueueSize = 0; return m },
		func(m Machine) Machine { m.Width = 0; return m },
		func(m Machine) Machine { m.IssueWidth = 0; return m },
		func(m Machine) Machine { m.RUUSize = 1; return m },
		func(m Machine) Machine { m.LSQSize = 0; return m },
		func(m Machine) Machine { m.FU.IntALU = 0; return m },
		func(m Machine) Machine { m.GshareBits = 0; return m },
		func(m Machine) Machine { m.Reese.Enabled = true; m.Reese.RSQSize = 0; return m },
	}
	for i, mod := range cases {
		if err := mod(Starting()).Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

// Every field that sizes an allocation has an upper bound: a machine
// sent to the service must not be able to make a worker allocate
// without limit. The largest machines the experiments build stay valid.
func TestValidateBoundsAllocationSizes(t *testing.T) {
	big := Starting().WithRUU(256).WithRSQ(64).WithFUs(fu.Config{IntALU: 8, IntMult: 2, MemPort: 4, FPALU: 8, FPMult: 2})
	if err := big.WithReese().Validate(); err != nil {
		t.Fatalf("largest experiment machine rejected: %v", err)
	}
	const huge = 1 << 30
	for name, mod := range map[string]func(*Machine){
		"fetch queue":     func(m *Machine) { m.FetchQueueSize = huge },
		"RUU":             func(m *Machine) { m.RUUSize = huge },
		"LSQ":             func(m *Machine) { m.LSQSize = huge },
		"RSQ":             func(m *Machine) { m.Reese.RSQSize = huge },
		"int ALUs":        func(m *Machine) { m.FU.IntALU = huge },
		"int multipliers": func(m *Machine) { m.FU.IntMult = huge },
		"memory ports":    func(m *Machine) { m.FU.MemPort = huge },
		"FP ALUs":         func(m *Machine) { m.FU.FPALU = huge },
		"FP multipliers":  func(m *Machine) { m.FU.FPMult = huge },
		"L1I lines":       func(m *Machine) { m.Memory.L1I.BlockBytes, m.Memory.L1I.SizeBytes = 1, huge },
		"L1D size":        func(m *Machine) { m.Memory.L1D.SizeBytes = 1 << 31 },
		"L2 size":         func(m *Machine) { m.Memory.L2.SizeBytes = 1 << 31 },
		"L1I block":       func(m *Machine) { m.Memory.L1I.BlockBytes = 1 << 16 },
		"L1D block":       func(m *Machine) { m.Memory.L1D.BlockBytes = 1 << 16 },
		"L2 block":        func(m *Machine) { m.Memory.L2.BlockBytes = 1 << 16 },
		"L1I assoc":       func(m *Machine) { m.Memory.L1I.Assoc = 1 << 16 },
		"L1D assoc":       func(m *Machine) { m.Memory.L1D.Assoc = 1 << 16 },
		"L2 assoc":        func(m *Machine) { m.Memory.L2.Assoc = 1 << 16 },
		"ITLB entries":    func(m *Machine) { m.Memory.ITLB.Entries = huge },
		"DTLB entries":    func(m *Machine) { m.Memory.DTLB.Entries = huge },
		"BTB sets":        func(m *Machine) { m.BTBSets = huge },
		"BTB assoc":       func(m *Machine) { m.BTBAssoc = huge },
		"RAS":             func(m *Machine) { m.RASSize = huge },
	} {
		m := Starting().WithReese()
		mod(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: oversized machine accepted", name)
		}
	}
}

// Validate rejects every memory hierarchy pipeline.New would refuse,
// so a bad cache or TLB geometry is a request error, not a failed run.
func TestValidateChecksMemoryHierarchy(t *testing.T) {
	for name, mod := range map[string]func(*Machine){
		"L2 block not a power of two": func(m *Machine) { m.Memory.L2.BlockBytes = 48 },
		"L1I zero assoc":              func(m *Machine) { m.Memory.L1I.Assoc = 0 },
		"L1D size not divisible":      func(m *Machine) { m.Memory.L1D.SizeBytes = 1000 },
		"L2 set count":                func(m *Machine) { m.Memory.L2.SizeBytes = 3 * 64 * 4 },
		"L1D zero hit latency":        func(m *Machine) { m.Memory.L1D.HitLatency = 0 },
		"ITLB page size":              func(m *Machine) { m.Memory.ITLB.PageBytes = 3000 },
		"DTLB entries/assoc":          func(m *Machine) { m.Memory.DTLB.Entries = 30 },
		"DTLB set count":              func(m *Machine) { m.Memory.DTLB.Entries, m.Memory.DTLB.Assoc = 12, 4 },
		"ITLB negative miss latency":  func(m *Machine) { m.Memory.ITLB.MissLatency = -1000 },
		"DTLB negative miss latency":  func(m *Machine) { m.Memory.DTLB.MissLatency = -1 },
		"memory latency":              func(m *Machine) { m.Memory.MemLatency = 0 },
	} {
		m := Starting().WithReese()
		mod(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: invalid hierarchy accepted", name)
			continue
		}
		if _, herr := mem.NewHierarchy(m.Memory); herr == nil {
			t.Errorf("%s: Validate rejects what NewHierarchy builds", name)
		}
	}
}

func TestWithNameAndImmutability(t *testing.T) {
	base := Starting()
	named := base.WithName("custom")
	if named.Name != "custom" {
		t.Error("rename failed")
	}
	if base.Name == "custom" {
		t.Error("mutated receiver")
	}
	// Chain of With* calls never aliases FU state.
	a := base.WithSpares(2, 0)
	if base.FU.IntALU != 4 {
		t.Error("spares mutated base")
	}
	_ = a
}
