package reese_test

// Facade tests: exercise the public API exactly as a downstream user
// would, including the README's quickstart flow.

import (
	"strings"
	"testing"

	"reese"
)

func TestQuickstartFlow(t *testing.T) {
	prog, err := reese.Workload("gcc", 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := reese.Run(reese.StartingConfig(), prog, nil, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err = reese.Workload("gcc", 0)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := reese.Run(reese.StartingConfig().WithReese().WithSpares(2, 0), prog, nil, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || prot.IPC <= 0 {
		t.Fatal("zero IPC")
	}
	if prot.IPC > base.IPC*1.05 {
		t.Errorf("REESE (%.3f) should not beat baseline (%.3f)", prot.IPC, base.IPC)
	}
	if prot.Reese == nil || prot.Reese.Reexecuted == 0 {
		t.Error("REESE stats missing")
	}
}

func TestWorkloadNamesAndExtras(t *testing.T) {
	names := reese.WorkloadNames()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	for _, extra := range []string{"compress", "m88ksim", "fpmix"} {
		if _, err := reese.Workload(extra, 2); err != nil {
			t.Errorf("extra workload %s: %v", extra, err)
		}
	}
	if _, err := reese.Workload("bogus", 0); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestAssembleAndEmulate(t *testing.T) {
	prog, err := reese.Assemble("t", `
		li r1, 6
		li r2, 7
		mul r3, r1, r2
		out r3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reese.Emulate(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() || len(m.Output()) != 1 || m.Output()[0] != 42 {
		t.Errorf("halted=%v output=%v", m.Halted(), m.Output())
	}
}

func TestInjectorConstructors(t *testing.T) {
	prog, err := reese.Workload("li", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reese.Run(reese.StartingConfig().WithReese(), prog, reese.FaultAt(2000, 5), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected != 1 {
		t.Errorf("detected %d", res.FaultsDetected)
	}
	if reese.NoFaults() == nil || reese.PeriodicFaults(10) == nil || reese.RandomFaults(1<<20, 1) == nil {
		t.Error("injector constructors")
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(reese.Table1(), "RUU Size") {
		t.Error("Table1")
	}
	if !strings.Contains(reese.Table2(), "vortex") {
		t.Error("Table2")
	}
}

func TestFigure2ViaFacade(t *testing.T) {
	fig, err := reese.Figure2(reese.Options{Insts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if fig.GapPercent("Baseline", "REESE") <= 0 {
		t.Error("REESE should cost something")
	}
}

func TestBitGridViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("32 simulations")
	}
	grid, err := reese.BitGrid(reese.StartingConfig().WithReese(), "li", 2_000, reese.Options{Insts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 32 {
		t.Fatalf("grid size %d", len(grid))
	}
	for _, c := range grid {
		if !c.Detected {
			t.Errorf("bit %d not detected", c.Bit)
		}
	}
}

func TestCPUStepAPI(t *testing.T) {
	prog, err := reese.Workload("perl", 2)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := reese.New(reese.StartingConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	cpu.SetTrace(&sink)
	res, err := cpu.Run(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 1_000 {
		t.Errorf("committed %d", res.Committed)
	}
	if !strings.Contains(sink.String(), "COMMIT") {
		t.Error("trace should contain commit events")
	}
}

func TestStuckUnitViaFacade(t *testing.T) {
	cfg := reese.StartingConfig().WithReese().WithRESO()
	cfg.FU.IntALU = 1
	prog, err := reese.Workload("gcc", 2)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := reese.New(cfg, prog, reese.StuckALU(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsDetected == 0 {
		t.Error("RESO should detect the stuck ALU through the public API")
	}
}
