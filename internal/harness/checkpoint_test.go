package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/mem"
	"reese/internal/pipeline"
	"reese/internal/workload"
)

// testBundle returns the memoized bundle of a default campaign of
// program on m.
func testBundle(t *testing.T, program string, m config.Machine) *campaignBundle {
	t.Helper()
	spec, _ := CampaignSpec{Workload: program, Machine: m}.withDefaults()
	wspec, ok := workload.ByName(program)
	if !ok {
		t.Fatalf("unknown workload %q", program)
	}
	b, err := bundleForSpec(spec, wspec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGoldenFinish fails t unless a machine forked from one of b's
// checkpoints finished exactly as b's golden run did.
func checkGoldenFinish(t *testing.T, what string, b *campaignBundle, cpu *pipeline.CPU, res pipeline.Result) {
	t.Helper()
	if res.Cycles != b.finalRes.Cycles || res.Committed != b.finalRes.Committed {
		t.Errorf("%s: finished at cycle %d / %d insts, golden %d / %d",
			what, res.Cycles, res.Committed, b.finalRes.Cycles, b.finalRes.Committed)
	}
	if got := cpu.CommitDigest(); got != b.finalCommit {
		t.Errorf("%s: commit digest diverged from golden", what)
	}
	if got := cpu.OracleDigest(); got != b.finalOracle {
		t.Errorf("%s: oracle digest diverged from golden", what)
	}
	if !reflect.DeepEqual(res.Stalls, b.finalRes.Stalls) {
		t.Errorf("%s: stall ledger diverged from golden:\nfork   %+v\ngolden %+v",
			what, res.Stalls, b.finalRes.Stalls)
	}
}

// TestForkFromCheckpointMatchesScratchRun is the core soundness
// property of checkpoint/fork replay: an uninjected machine forked from
// any checkpoint and run to completion must finish in exactly the state
// the golden from-scratch run finished in — same cycle count, same
// commit and oracle digests, same stall attribution.
func TestForkFromCheckpointMatchesScratchRun(t *testing.T) {
	s := config.Starting()
	for _, cfg := range []config.Machine{
		s.WithReese(), s, s.WithDupDispatch(), s.WithReese().WithRESO(),
		s.WithReese().WithPartialReexec(3), s.WithReese().WithWrongPath(),
	} {
		b := testBundle(t, "li", cfg)
		if len(b.checkpoints) < 3 {
			t.Fatalf("golden run produced %d checkpoints, want >= 3", len(b.checkpoints))
		}

		// Checkpoint 0 (the pre-run state), the last one, and a few
		// seeded-random interior picks.
		rng := rand.New(rand.NewSource(0xC0FFEE))
		picks := []int{0, len(b.checkpoints) - 1}
		for i := 0; i < 3; i++ {
			picks = append(picks, 1+rng.Intn(len(b.checkpoints)-1))
		}

		for _, i := range picks {
			ck := b.checkpoints[i]
			w := newCampaignWorker()
			w.adopt(ck.Mem)
			cpu, err := ck.Fork(w.mem, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cpu.Run(b.budget)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenFinish(t, fmt.Sprintf("%s fork@%d (commit %d)", cfg.Name, i, ck.Committed), b, cpu, res)
		}
	}
}

// TestCampaignInvariantToCheckpointInterval pins the engine's headline
// guarantee: per-trial results are a pure function of the campaign spec
// and seed, not of the snapshot schedule. An interval larger than the
// workload degenerates to full-prefix simulation with no splice
// opportunities, so equality across these runs is fork+splice vs.
// from-scratch equivalence for every trial — exercised across every
// fault structure the machine supports, pipeline latches and memory-
// hierarchy targets alike.
func TestCampaignInvariantToCheckpointInterval(t *testing.T) {
	base := CampaignSpec{
		Workload:   "gcc", // hosts victims for every structure (loads, stores, branches)
		Machine:    config.Starting().WithReese(),
		Injections: 120,
		Seed:       0xBEEF,
		Structures: fault.Structures(true),
	}
	render := func(interval uint64) (string, string, *CampaignReport) {
		spec := base
		spec.CheckpointInterval = interval
		rep, err := Campaign(spec, Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rep.Table(), rep
	}
	refJSONL, refTable, refRep := render(0) // DefaultCheckpointInterval
	// The run must actually sample the memory hierarchy, or the
	// invariance below says nothing about mem-fault replay.
	memInjected := uint64(0)
	for _, sc := range refRep.Structures {
		if st, ok := fault.ParseStruct(sc.Structure); ok && st.InMemHierarchy() {
			memInjected += sc.Injected
		}
	}
	if memInjected == 0 {
		t.Fatal("campaign sampled no memory-hierarchy structures")
	}
	for _, interval := range []uint64{64, 1 << 20} {
		jsonl, table, _ := render(interval)
		if jsonl != refJSONL {
			t.Errorf("per-trial JSONL differs between interval %d and the default", interval)
		}
		if table != refTable {
			t.Errorf("report table differs between interval %d and the default", interval)
		}
	}
}

// TestMemFaultTrialsInvariantToCheckpointInterval narrows interval
// invariance to the memory-hierarchy structures only, with a small
// interval in the mix so trials fork close to their injection point.
// That forces armed and pending fault residue — in particular the
// lost-write-back record with its pre-store block snapshot — to ride
// through checkpoint restore (mem/clone.go deep-copies frec.snap) and
// to block golden splicing until it settles; any shallow-copy or
// settle-ordering bug shows up as a per-trial diff between schedules.
func TestMemFaultTrialsInvariantToCheckpointInterval(t *testing.T) {
	base := CampaignSpec{
		Workload:   "gcc",
		Machine:    config.Starting().WithReese(),
		Injections: 60,
		Seed:       0xD00D,
		Structures: []fault.Struct{
			fault.StructMemWord, fault.StructL1DTag, fault.StructL1DDirty,
			fault.StructL1DData, fault.StructL1ITag, fault.StructL2Line,
			fault.StructITLB, fault.StructDTLB,
		},
	}
	render := func(interval uint64) (string, *CampaignReport) {
		spec := base
		spec.CheckpointInterval = interval
		rep, err := Campaign(spec, Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rep
	}
	refJSONL, refRep := render(1 << 20) // no checkpoints: pure from-scratch
	for _, sc := range refRep.Structures {
		if sc.Injected == 0 {
			t.Errorf("structure %s drew no trials", sc.Structure)
		}
	}
	// Lost write-backs must actually fire somewhere, or the deep-clone
	// path under test never carries a non-empty snapshot.
	for _, sc := range refRep.Structures {
		if sc.Structure == fault.StructL1DDirty.String() && sc.Fired == 0 {
			t.Error("no l1d-dirty trial fired; lost-write-back replay untested")
		}
	}
	for _, interval := range []uint64{16, 64, 0} {
		jsonl, _ := render(interval)
		if jsonl != refJSONL {
			t.Errorf("mem-fault JSONL differs between interval %d and from-scratch", interval)
		}
	}
}

// TestSpliceMatchesScratchAllPrograms is the wide soundness net for
// suffix splicing: on every program and both machines, with the
// default structure mix, per-trial JSONL at the default checkpoint
// interval must equal a from-scratch run's (an interval past the end
// of the program leaves nothing to fork from or splice into).
func TestSpliceMatchesScratchAllPrograms(t *testing.T) {
	jsonl := func(interval uint64) string {
		base := CampaignSpec{
			Machine:            config.Starting(),
			Injections:         60,
			Seed:               0x5EED,
			CheckpointInterval: interval,
		}
		_, reps, err := CampaignAll(base, func(spec CampaignSpec) (*CampaignReport, error) {
			return Campaign(spec, Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i := range reps {
			if err := reps[i].WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	if jsonl(0) != jsonl(1<<20) {
		t.Error("per-trial JSONL differs between the default interval and from-scratch")
	}
}

// TestCacheAndTLBTrialsSplice pins the splice rate of cache-tag,
// dirty-bit and TLB faults, whose masked trials reconverge with the
// golden run except for state its suffix never observes (a residue in
// a set it never misses in again, a flipped tag in a way it never
// reads). Every byte-identity test stays green if splicing silently
// falls back to full simulation; this one does not.
func TestCacheAndTLBTrialsSplice(t *testing.T) {
	for _, m := range []config.Machine{config.Starting().WithReese(), config.Starting()} {
		rep, err := Campaign(CampaignSpec{
			Workload:   "gcc",
			Machine:    m,
			Injections: 250,
			Seed:       0x5A1CE,
			Structures: []fault.Struct{
				fault.StructL1DTag, fault.StructL1DDirty, fault.StructL1ITag,
				fault.StructITLB, fault.StructDTLB,
			},
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		masked, spliced := 0, 0
		for _, tr := range rep.Trials {
			if tr.Fired && tr.outcome == fault.OutcomeMasked {
				masked++
				if tr.spliced {
					spliced++
				}
			}
		}
		if masked == 0 || spliced*5 < masked*4 {
			t.Errorf("%s: %d of %d fired, masked cache/TLB trials spliced, want >= 80%%", m.Name, spliced, masked)
		}
	}
}

// Trial workers come from one process-wide pool, so a worker that ran
// a trial on one bundle serves the next trial of any other. Its memory
// must then equal the new checkpoint's image byte for byte, and its
// recycled CPU, of another machine and program, must run to the new
// bundle's golden finish. Both directions run: gcc dirties only pages
// that differ between the two programs' images anyway, while vortex
// also writes a page that is zero in its own pre-run image and in
// gcc's, which adopt must recopy although the old and new images both
// hold the shared zero page there.
func TestWorkerServesAnyBundle(t *testing.T) {
	bundles := map[string]*campaignBundle{
		"gcc":    testBundle(t, "gcc", config.Starting()),
		"vortex": testBundle(t, "vortex", config.Starting().WithReese()),
	}
	for _, pair := range [][2]string{{"gcc", "vortex"}, {"vortex", "gcc"}} {
		a, b := bundles[pair[0]], bundles[pair[1]]
		for _, i := range []int{0, len(b.checkpoints) / 2, len(b.checkpoints) - 1} {
			what := fmt.Sprintf("%s checkpoint %d after a %s trial", pair[1], i, pair[0])
			w := newCampaignWorker()
			ckA := a.checkpoints[0]
			w.adopt(ckA.Mem)
			cpu, err := ckA.Fork(w.mem, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cpu.Run(a.budget); err != nil {
				t.Fatal(err)
			}

			ck := b.checkpoints[i]
			w.adopt(ck.Mem)
			if !bytes.Equal(w.mem.Bytes(), ck.Mem.Materialize()) {
				t.Fatalf("%s: adopted memory differs from the image", what)
			}
			cpu, err = ck.Fork(w.mem, nil, cpu)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cpu.Run(b.budget)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenFinish(t, what, b, cpu, res)
		}
	}
}

// Campaigns on two bundles running at once trade workers through the
// shared pool trial by trial; each one's JSONL must still equal the
// same spec run on its own.
func TestCampaignsSharingWorkersMatchAlone(t *testing.T) {
	specs := []CampaignSpec{
		{Workload: "gcc", Machine: config.Starting(), Injections: 60, Seed: 0xA1},
		{Workload: "vortex", Machine: config.Starting().WithReese(), Injections: 60, Seed: 0xB2},
	}
	jsonl := func(spec CampaignSpec) (string, error) {
		rep, err := Campaign(spec, Options{Parallel: 2})
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		err = rep.WriteJSONL(&buf)
		return buf.String(), err
	}
	alone := make([]string, len(specs))
	for i, spec := range specs {
		var err error
		if alone[i], err = jsonl(spec); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		got := make([]string, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = jsonl(spec)
			}()
		}
		wg.Wait()
		for i, spec := range specs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != alone[i] {
				t.Errorf("round %d: %s on %s JSONL differs from the campaign run alone", round, spec.Workload, spec.Machine.Name)
			}
		}
	}
}

// Every all-zero page of every snapshot image is the one shared zero
// page, so the twelve default bundles (six programs on both machines)
// hold a few hundred distinct pages instead of twelve full 8 MiB
// images (24,841 pages when each base snapshot copied every page).
func TestBundlesShareZeroPage(t *testing.T) {
	zero := &mem.ZeroPage()[0]
	pages := map[*byte]bool{}
	for _, program := range workload.Names() {
		for _, m := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
			b := testBundle(t, program, m)
			images := []*mem.PageImage{b.finalMem}
			for _, ck := range b.checkpoints {
				images = append(images, ck.Mem)
			}
			for _, img := range images {
				for p := 0; p < img.NumPages(); p++ {
					pg := img.PageAt(p)
					if &pg[0] != zero && bytes.Equal(pg, mem.ZeroPage()[:len(pg)]) {
						t.Fatalf("%s on %s: an all-zero page %d is a private copy", program, m.Name, p)
					}
					pages[&pg[0]] = true
				}
			}
		}
	}
	t.Logf("%d distinct snapshot pages across the twelve bundles", len(pages))
	if len(pages) > 600 {
		t.Errorf("%d distinct snapshot pages across the twelve bundles, want at most 600", len(pages))
	}
}
