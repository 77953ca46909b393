package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/stats"
	"reese/internal/workload"
)

// CampaignSpec configures a statistical fault-injection campaign: a
// seeded random sample over (victim instruction, target structure, bit)
// on one workload/machine pair, every injected run classified against an
// uninjected golden execution. The same spec always produces the same
// trials and the same report, byte for byte, regardless of parallelism.
type CampaignSpec struct {
	// Workload names a Table 2 benchmark.
	Workload string `json:"workload"`
	// Machine is the configuration under test.
	Machine config.Machine `json:"machine"`
	// Structures are the fault targets to sample from; empty selects
	// every structure that exists on Machine (RSQ structures only on a
	// REESE machine in RSQ mode).
	Structures []fault.Struct `json:"structures,omitempty"`
	// Injections is the number of trials (0 = 100).
	Injections int `json:"injections,omitempty"`
	// Seed drives victim sampling; equal seeds reproduce exactly.
	Seed uint64 `json:"seed,omitempty"`
	// TargetInsts sizes the program: the workload's iteration count is
	// grown until the golden run commits at least this many instructions
	// before halting (0 = 8000). Runs go to halt, not to a budget, so
	// clean and recovered runs end in identical architectural state.
	TargetInsts uint64 `json:"target_insts,omitempty"`
	// CheckpointInterval is the golden-run snapshot spacing in committed
	// instructions (0 = DefaultCheckpointInterval). Trials fork from the
	// nearest checkpoint before their injection point instead of
	// simulating the prefix; the interval trades snapshot memory against
	// simulated suffix length. Any interval produces byte-identical
	// reports — it only changes wall-clock time.
	CheckpointInterval uint64 `json:"checkpoint_interval,omitempty"`
	// Shard, when non-nil, restricts execution to the trials
	// [Offset, Offset+Count) of the full Injections-trial plan. Because
	// every trial is planned from its own splitmix64-derived substream
	// (see planTrial), a shard plans exactly the trials the
	// single-process campaign would have planned at those indices — the
	// union of the shard reports over any partition of [0, Injections)
	// merges (MergeReports) into the byte-identical single-process
	// report. Shard reports carry their latency histogram
	// (CampaignReport.LatencyHist) so detection-latency aggregates merge
	// exactly too.
	Shard *ShardRange `json:"shard,omitempty"`
	// TrialSink, when non-nil, receives every completed trial in plan
	// order as soon as it (and all lower-indexed trials) finish —
	// streaming JSONL writers see records during the campaign instead of
	// after it. A sink error aborts the campaign.
	TrialSink func(Trial) error `json:"-"`
	// Triage re-runs every trial that classifies as SDC or Hang from its
	// checkpoint with the flight recorder and the lockstep
	// first-divergence watch armed, attaching a TriageRecord (Perfetto
	// trace, first divergent commit, propagation summary) to the trial
	// (see triage.go). Trials that don't escape are untouched, so a
	// triaged campaign's JSONL minus the triage fields is byte-identical
	// to an untriaged run.
	Triage bool `json:"triage,omitempty"`
	// TriageDetected additionally triages detected trials — useful for
	// studying detection latency paths, off by default because detected
	// faults are the common case.
	TriageDetected bool `json:"triage_detected,omitempty"`
	// TriageObserver, when non-nil, is called after each completed triage
	// replay with the trial's outcome and the replay's wall-clock
	// seconds. Called concurrently from trial workers; implementations
	// must be safe for concurrent use.
	TriageObserver func(outcome string, seconds float64) `json:"-"`
}

// ShardRange addresses a contiguous slice of a campaign's trial plan:
// trials [Offset, Offset+Count) of the full Injections-trial plan.
// Plan records that full plan size, so a set of shard reports is
// self-describing: MergeReports can prove the set tiles the whole plan
// — including that the *last* shard is present — from the reports
// alone.
type ShardRange struct {
	Offset int `json:"offset"`
	Count  int `json:"count"`
	Plan   int `json:"plan"`
}

// validate checks the shard against the full plan size.
func (s *ShardRange) validate(injections int) error {
	if s.Count <= 0 {
		return fmt.Errorf("harness: shard count %d must be positive", s.Count)
	}
	if s.Offset < 0 || s.Offset+s.Count > injections {
		return fmt.Errorf("harness: shard [%d,%d) outside the %d-trial plan",
			s.Offset, s.Offset+s.Count, injections)
	}
	if s.Plan != 0 && s.Plan != injections {
		return fmt.Errorf("harness: shard plan size %d disagrees with injections %d", s.Plan, injections)
	}
	return nil
}

// withDefaults fills the zero fields. defaulted reports whether the
// structure list was inferred rather than requested: inferred lists may
// silently drop structures the workload has no victims for (a storeless
// program cannot host a store-data fault), requested ones must not.
func (s CampaignSpec) withDefaults() (_ CampaignSpec, defaulted bool) {
	if s.Injections == 0 {
		s.Injections = 100
	}
	if s.TargetInsts == 0 {
		s.TargetInsts = 8_000
	}
	if s.CheckpointInterval == 0 {
		s.CheckpointInterval = DefaultCheckpointInterval
	}
	if len(s.Structures) == 0 {
		s.Structures = fault.Structures(s.Machine.HasRSQ())
		defaulted = true
	}
	return s, defaulted
}

// hostableStructures filters a requested structure list down to those
// machine m can host (the RSQ structures need an R-stream Queue), so one
// list serves both halves of a REESE-vs-baseline comparison. When none
// survive it falls back to the result structure, keeping the campaign
// non-empty; an empty request stays empty (the campaign default).
func hostableStructures(structs []fault.Struct, m config.Machine) []fault.Struct {
	var out []fault.Struct
	for _, st := range structs {
		if !st.NeedsRSQ() || m.HasRSQ() {
			out = append(out, st)
		}
	}
	if len(out) == 0 && len(structs) > 0 {
		out = []fault.Struct{fault.StructResult}
	}
	return out
}

// Trial is one injected run: where the fault landed and what became of
// it. Campaign reports stream one Trial per line as JSONL.
type Trial struct {
	Index     int    `json:"trial"`
	Structure string `json:"structure"`
	// Seq is the victim: the dynamic instruction index (or, for
	// oracle-site structures, the instruction count at corruption).
	Seq uint64 `json:"seq"`
	Bit uint8  `json:"bit"`
	Reg uint8  `json:"reg,omitempty"`
	// Seq2 (dirty-bit faults only) is the dynamic index of the victim
	// block's last golden store; the dirty-clear fires after it retires,
	// so the lost write-back covers every store to the block.
	Seq2 uint64 `json:"seq2,omitempty"`
	// Fired reports the injector actually placed the fault (a fault
	// aimed past the end of execution never fires and counts as masked).
	Fired   bool   `json:"fired"`
	Outcome string `json:"outcome"`
	// Addr is the victim address for memory-hierarchy structures: the
	// targeted memory word, cache line, or page. Zero for pipeline
	// structures.
	Addr uint32 `json:"addr,omitempty"`
	// Locale is the symptom-only localization verdict for non-masked
	// trials: "ram", "cache", or "pipeline" — the classifier's guess at
	// which plane the fault struck, scored against the structure's
	// ground-truth LevelGroup.
	Locale string `json:"locale,omitempty"`
	// Latency is injection-to-detection in cycles, for detected trials.
	Latency   uint64 `json:"latency_cycles,omitempty"`
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
	// Triage is the escape-triage attachment (CampaignSpec.Triage): the
	// replay verdict, first divergent commit, and trace metadata. Nil for
	// untriaged trials, so untriaged JSONL is unchanged.
	Triage *TriageRecord `json:"triage,omitempty"`

	outcome fault.Outcome
	// Replay-verification state for the triage pass (checkpoint.go fills
	// these; never serialized): the digests classification saw, the hang
	// loop period, the final-memory diff extent, and the cycle the fault
	// fired. spliced records that the trial reconverged with the golden
	// run and took its suffix instead of simulating it.
	spliced    bool
	commitDig  emu.Digest
	oracleDig  emu.Digest
	hangPeriod uint64
	diffWords  int
	diffLo     uint32
	faultCycle uint64
}

// OutcomeCounts tallies trials per outcome; the six counts always sum
// to the number of injections classified into them.
type OutcomeCounts struct {
	Detected  uint64 `json:"detected"`
	Recovered uint64 `json:"recovered"`
	SDC       uint64 `json:"sdc"`
	Masked    uint64 `json:"masked"`
	Hang      uint64 `json:"hang"`
	// Corrected counts trials an ECC-protected structure absorbed:
	// effective (the fault reached real state) but never an escape.
	Corrected uint64 `json:"corrected"`
}

func (o *OutcomeCounts) add(c fault.Outcome) {
	switch c {
	case fault.OutcomeDetected:
		o.Detected++
	case fault.OutcomeRecovered:
		o.Recovered++
	case fault.OutcomeSDC:
		o.SDC++
	case fault.OutcomeMasked:
		o.Masked++
	case fault.OutcomeHang:
		o.Hang++
	case fault.OutcomeCorrected:
		o.Corrected++
	}
}

// Total sums the six outcome counts.
func (o OutcomeCounts) Total() uint64 {
	return o.Detected + o.Recovered + o.SDC + o.Masked + o.Hang + o.Corrected
}

// StructureCoverage is the per-structure slice of a campaign report.
type StructureCoverage struct {
	Structure string `json:"structure"`
	InSphere  bool   `json:"in_sphere"`
	Injected  uint64 `json:"injected"`
	Fired     uint64 `json:"fired"`
	// Effective is the trials whose fault mattered: injected minus
	// masked. A masked trial's flipped bit was architecturally dead
	// (overwritten result, shifted-out operand bit) — there was nothing
	// to catch, so it belongs in neither coverage numerator nor
	// denominator.
	Effective uint64 `json:"effective"`
	OutcomeCounts
	// Coverage is (detected+recovered+corrected)/effective with its
	// Wilson 95% confidence interval — the probability a consequential
	// fault in this structure is caught (or absorbed by ECC) before it
	// matters. Zero effective trials give coverage 0 with the vacuous
	// interval [0, 1]: no evidence.
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_ci_lo"`
	CoverageHi float64 `json:"coverage_ci_hi"`
	// Localized counts this structure's non-masked trials the symptom
	// classifier attributed to a plane; LocCorrect the attributions that
	// match the structure's ground-truth level group.
	Localized  uint64 `json:"localized,omitempty"`
	LocCorrect uint64 `json:"loc_correct,omitempty"`
	// Triaged counts this structure's trials the triage pass replayed;
	// Diverged those with an attributed first divergent commit, and
	// DivergeCycleSum the sum of their injection-to-divergence cycle
	// deltas (an integer sum, so shard merges reproduce the mean
	// exactly). All zero — and omitted — when triage is off.
	Triaged         uint64 `json:"triaged,omitempty"`
	Diverged        uint64 `json:"diverged,omitempty"`
	DivergeCycleSum uint64 `json:"diverge_cycle_sum,omitempty"`
}

// LevelCoverage aggregates a campaign per physical plane — RAM, L1, L2,
// TLB, pipeline — the per-level rollup the localization pass is
// reported against. Derived exactly from the per-structure counts, so
// shard merges reproduce it byte-identically.
type LevelCoverage struct {
	Level string `json:"level"`

	Injected  uint64 `json:"injected"`
	Fired     uint64 `json:"fired"`
	Effective uint64 `json:"effective"`
	OutcomeCounts
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_ci_lo"`
	CoverageHi float64 `json:"coverage_ci_hi"`
	// SDCRate is sdc/effective: the probability a consequential fault
	// at this level silently corrupts state.
	SDCRate   float64 `json:"sdc_rate"`
	SDCRateLo float64 `json:"sdc_rate_ci_lo"`
	SDCRateHi float64 `json:"sdc_rate_ci_hi"`
	// LocAccuracy is loc_correct/localized: how often the symptom-only
	// classifier attributed this level's non-masked trials to the right
	// plane group.
	Localized     uint64  `json:"localized"`
	LocCorrect    uint64  `json:"loc_correct"`
	LocAccuracy   float64 `json:"loc_accuracy"`
	LocAccuracyLo float64 `json:"loc_accuracy_ci_lo"`
	LocAccuracyHi float64 `json:"loc_accuracy_ci_hi"`
}

// LatencyCell is one value of a shard report's detection-latency
// histogram: Count detections at exactly Cycles injection-to-detection
// cycles. Width-1 cells make the histogram lossless, so merged
// mean/p95/max are bit-identical to a single-process computation.
type LatencyCell struct {
	Cycles uint64 `json:"cycles"`
	Count  uint64 `json:"count"`
}

// CampaignReport is the outcome of a fault-injection campaign.
type CampaignReport struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Seed     uint64 `json:"seed"`
	// GoldenInsts is the golden run's committed-instruction count (the
	// sampled victim space).
	GoldenInsts uint64 `json:"golden_insts"`

	Injected  uint64 `json:"injected"`
	Fired     uint64 `json:"fired"`
	Effective uint64 `json:"effective"`
	OutcomeCounts
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_ci_lo"`
	CoverageHi float64 `json:"coverage_ci_hi"`

	// DetectionLatencyMean/P95/Max summarise cycles from fault injection
	// (P-stream writeback) to comparator detection. This is the paper's
	// Δt argument (§2): the RSQ transit time separates the two
	// executions.
	DetectionLatencyMean float64 `json:"detection_latency_mean"`
	DetectionLatencyP95  uint64  `json:"detection_latency_p95"`
	DetectionLatencyMax  uint64  `json:"detection_latency_max"`

	Structures []StructureCoverage `json:"structures"`

	// Levels rolls the campaign up per physical plane (RAM, L1, L2,
	// TLB, pipeline) with localization accuracy per level; Localized/
	// LocCorrect and LocAccuracy summarize the symptom classifier over
	// all non-masked trials.
	Levels        []LevelCoverage `json:"levels,omitempty"`
	Localized     uint64          `json:"localized,omitempty"`
	LocCorrect    uint64          `json:"loc_correct,omitempty"`
	LocAccuracy   float64         `json:"loc_accuracy,omitempty"`
	LocAccuracyLo float64         `json:"loc_accuracy_ci_lo,omitempty"`
	LocAccuracyHi float64         `json:"loc_accuracy_ci_hi,omitempty"`

	// Triaged/Diverged count trials the escape-triage pass replayed and
	// those with an attributed first divergent commit (sums of the
	// per-structure counts); both zero — and omitted — when triage is
	// off, so untriaged report JSON is unchanged.
	Triaged  uint64 `json:"triaged,omitempty"`
	Diverged uint64 `json:"diverged,omitempty"`

	// Shard echoes the spec's shard range when this report covers only a
	// slice of the plan; LatencyHist is the shard's raw detection-latency
	// distribution, carried so MergeReports can rebuild the merged
	// mean/p95/max exactly. Both are nil on single-process reports.
	Shard       *ShardRange   `json:"shard,omitempty"`
	LatencyHist []LatencyCell `json:"latency_hist,omitempty"`

	// WallSeconds and InjectionsPerSec measure campaign throughput:
	// wall-clock time for planning plus every trial (golden-run
	// construction included on a cold cache), and trials completed per
	// second. Unlike everything else in the report they depend on the
	// host, not just the spec.
	WallSeconds      float64 `json:"wall_seconds,omitempty"`
	InjectionsPerSec float64 `json:"injections_per_sec,omitempty"`

	// Trials carries the raw per-injection records (use WriteJSONL to
	// stream them); excluded from the report's own JSON form.
	Trials []Trial `json:"-"`
}

// WriteJSONL streams one JSON object per trial to w. Output is
// byte-identical for equal specs.
func (r *CampaignReport) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.Trials {
		if err := enc.Encode(&r.Trials[i]); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the per-structure coverage breakdown. When the campaign
// ran with triage, a "first div" column reports the mean
// injection-to-first-divergence cycle delta per structure (an exact
// integer-sum mean, so merged shard reports render identically);
// untriaged reports render exactly as before.
func (r *CampaignReport) Table() string {
	cols := []string{"structure", "sphere", "inj", "eff", "det", "rec", "corr", "sdc", "mask", "hang", "coverage", "95% CI"}
	if r.Triaged > 0 {
		cols = append(cols, "first div")
	}
	t := stats.NewTable(
		fmt.Sprintf("Fault campaign: %s on %s (%d injections, seed %d)",
			r.Workload, r.Config, r.Injected, r.Seed),
		cols...)
	for _, s := range r.Structures {
		sphere := "outside"
		if s.InSphere {
			sphere = "in"
		}
		row := []string{s.Structure, sphere,
			fmt.Sprint(s.Injected), fmt.Sprint(s.Effective),
			fmt.Sprint(s.Detected), fmt.Sprint(s.Recovered), fmt.Sprint(s.Corrected),
			fmt.Sprint(s.SDC), fmt.Sprint(s.Masked), fmt.Sprint(s.Hang),
			fmt.Sprintf("%.1f%%", s.Coverage*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", s.CoverageLo*100, s.CoverageHi*100)}
		if r.Triaged > 0 {
			cell := "-"
			if s.Diverged > 0 {
				cell = fmt.Sprintf("%d cyc", s.DivergeCycleSum/s.Diverged)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// LevelsTable renders the per-plane rollup with localization accuracy.
func (r *CampaignReport) LevelsTable() string {
	t := stats.NewTable(
		fmt.Sprintf("Per-level rollup: %s on %s (localization accuracy %.1f%% [%.1f%%, %.1f%%] over %d localized trials)",
			r.Workload, r.Config, r.LocAccuracy*100, r.LocAccuracyLo*100, r.LocAccuracyHi*100, r.Localized),
		"level", "inj", "eff", "coverage", "95% CI", "sdc rate", "95% CI", "loc acc", "95% CI")
	for _, l := range r.Levels {
		t.AddRow(l.Level,
			fmt.Sprint(l.Injected), fmt.Sprint(l.Effective),
			fmt.Sprintf("%.1f%%", l.Coverage*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", l.CoverageLo*100, l.CoverageHi*100),
			fmt.Sprintf("%.1f%%", l.SDCRate*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", l.SDCRateLo*100, l.SDCRateHi*100),
			fmt.Sprintf("%.1f%%", l.LocAccuracy*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", l.LocAccuracyLo*100, l.LocAccuracyHi*100))
	}
	return t.String()
}

// golden is the uninjected reference execution: its final architectural
// digest, the per-instruction record every later stage reads, and the
// eligibility lists trial sampling draws victims from.
type golden struct {
	digest emu.Digest
	total  uint64
	// insts is the golden commit stream, one entry per dynamic
	// instruction in program order: trial planning takes strike
	// addresses from it, checkpoint splicing folds its stores and
	// destination registers (checkpoint.go), and triage checks every
	// replayed retire against it (triage.go).
	insts []goldenInst
	// observable lists dynamic instruction indices the comparator has an
	// outcome for; mems/stores the memory and store subsets.
	observable []uint64
	mems       []uint64
	stores     []uint64
	// out is the golden program output (the localization pass parses
	// PRBS self-check records out of it).
	out []byte
	// blockStores maps each lostWBGranule-aligned block address to the
	// dynamic indices of its first and last store — the snapshot point
	// and fire gate for dirty-bit (lost write-back) faults.
	blockStores map[uint32][2]uint64
}

// goldenInst is one dynamic instruction of the golden run.
type goldenInst struct {
	// pc is the fetch PC (the strike address for I-side faults, which
	// sample the whole stream); result the destination-register value.
	pc, result uint32
	// addr and width are a memory access's effective address (the
	// strike address for data-side memory-hierarchy faults) and byte
	// width; storeValue is a store's raw value.
	addr, storeValue uint32
	width            uint8
	// dest is the destination register, in the FP file when destFP;
	// destNone when the instruction writes no register or only r0.
	dest   uint8
	destFP bool
}

// destNone marks a dynamic instruction that writes no register.
const destNone = 0xFF

// lostWBGranule is the block granularity dirty-bit faults are planned
// at; it matches the 32-byte L1D lines every shipped configuration
// uses.
const lostWBGranule = 32

// victimsFor is the structure's eligible-victim list; sampled is false
// for the architectural sites (regfile, fetch PC), which can strike at
// any point in the instruction stream.
func (g *golden) victimsFor(st fault.Struct) (victims []uint64, sampled bool) {
	switch st {
	case fault.StructResult, fault.StructRSQOperand, fault.StructRSQResult, fault.StructComparator:
		return g.observable, true
	case fault.StructLSQAddr:
		return g.mems, true
	case fault.StructLSQStoreData:
		return g.stores, true
	case fault.StructMemWord, fault.StructL1DTag, fault.StructL1DData,
		fault.StructL2Line, fault.StructDTLB:
		// Data-side memory-hierarchy faults strike the address of a
		// sampled memory access (planTrial reads the address from the
		// golden record).
		return g.mems, true
	case fault.StructL1DDirty:
		// A dirty-bit fault needs a line a store has dirtied.
		return g.stores, true
	}
	return nil, false
}

// goldenScan sizes the program (growing the workload's iteration count
// until the golden run commits at least target instructions) and runs
// it once on the emulator, recording the digest, the per-instruction
// golden record and the eligibility lists.
func goldenScan(spec workload.Spec, target uint64) (*golden, *program.Program, error) {
	limit := 4*target + 200_000
	iters := 1
	for {
		prog, err := spec.Build(iters)
		if err != nil {
			return nil, nil, err
		}
		m, err := emu.New(prog)
		if err != nil {
			return nil, nil, err
		}
		g := &golden{}
		for !m.Halted() {
			if m.InstCount() >= limit {
				return nil, nil, fmt.Errorf("harness: workload %s (iters=%d) did not halt within %d insts", spec.Name, iters, limit)
			}
			seq := m.InstCount()
			tr, err := m.Step()
			if err != nil {
				return nil, nil, fmt.Errorf("harness: golden run of %s: %w", spec.Name, err)
			}
			op := tr.Inst.Op
			gi := goldenInst{
				pc: tr.PC, result: tr.Result,
				addr: tr.Addr, storeValue: tr.StoreValue, width: uint8(tr.MemWidth),
				dest: destNone,
			}
			if r, isFP, ok := tr.DestReg(); ok && (isFP || r != 0) {
				gi.dest, gi.destFP = uint8(r), isFP
			}
			if fault.ComparatorObserves(tr) {
				g.observable = append(g.observable, seq)
			}
			if op.IsMem() {
				g.mems = append(g.mems, seq)
			}
			if op.IsStore() {
				g.stores = append(g.stores, seq)
				block := tr.Addr &^ (lostWBGranule - 1)
				if g.blockStores == nil {
					g.blockStores = make(map[uint32][2]uint64)
				}
				if fl, ok := g.blockStores[block]; ok {
					g.blockStores[block] = [2]uint64{fl[0], seq}
				} else {
					g.blockStores[block] = [2]uint64{seq, seq}
				}
			}
			g.insts = append(g.insts, gi)
		}
		g.digest = m.Digest()
		g.total = m.InstCount()
		g.out = append([]byte(nil), m.Output()...)
		if g.total >= target || iters >= 4096 {
			return g, prog, nil
		}
		// Grow geometrically toward the target; the extrapolated guess
		// overshoots slightly rather than creeping up one doubling at a
		// time.
		next := iters * 2
		if g.total > 0 {
			if est := int(uint64(iters)*target/g.total) + 1; est > next {
				next = est
			}
		}
		iters = next
	}
}

// classify buckets one injected run against the golden reference. The
// precedence is fixed: a hang trumps everything (the machine never
// finished); a comparator detection splits into recovered/detected by
// whether the final state is exactly golden; an undetected run splits
// into masked/SDC the same way. Both the committed (shadow) digest and
// the oracle digest must match: latch-plane corruption shows up in the
// former, architectural-site corruption in the latter.
func classify(res pipeline.Result, commit, oracle, gold emu.Digest) fault.Outcome {
	clean := commit == gold && oracle == gold
	switch {
	case res.Hanged:
		return fault.OutcomeHang
	case res.FaultsDetected > 0:
		if clean && !res.PermError {
			return fault.OutcomeRecovered
		}
		return fault.OutcomeDetected
	case clean:
		return fault.OutcomeMasked
	default:
		return fault.OutcomeSDC
	}
}

// splitmix64At returns the i-th output of the splitmix64 sequence
// seeded at seed — the standard gamma-increment-then-mix generator, a
// pure function of (seed, i) with O(1) random access.
func splitmix64At(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trialRNG is trial i's private sampling substream: an xorshift64*
// stream seeded by the i-th splitmix64 output of the campaign seed.
// Deriving each trial's randomness from (seed, i) alone — rather than
// one stream consumed sequentially — is what makes campaigns shardable:
// a worker planning trials [lo, hi) computes exactly the trials the
// single-process plan holds at those indices, without replaying the
// stream for the trials before lo. The union of any partition's shard
// plans therefore equals the single-process plan by construction
// (TestShardPlanUnionEqualsFullPlan pins it).
func trialRNG(seed uint64, i int) fault.XorShift {
	return fault.NewXorShift(splitmix64At(seed, uint64(i)))
}

// planTrial derives trial i of the campaign plan from the seed alone:
// structure, victim, bit, and (for register-file faults) the register,
// each drawn from the trial's private substream. Memory-hierarchy
// structures also carry a strike address looked up from the golden
// pools at the sampled victim index — a pure function of the same
// draws, so shard plans stay identical to the single-process plan.
func planTrial(seed uint64, i int, structures []fault.Struct, g *golden) Trial {
	rng := trialRNG(seed, i)
	st := structures[rng.Intn(len(structures))]
	var seq, seq2 uint64
	var addr uint32
	if victims, sampled := g.victimsFor(st); sampled {
		k := rng.Intn(len(victims))
		seq = victims[k]
		switch st {
		case fault.StructMemWord, fault.StructL1DTag, fault.StructL1DData,
			fault.StructL2Line, fault.StructDTLB:
			addr = g.insts[seq].addr
		case fault.StructL1DDirty:
			// Arm at the block's first store (the snapshot then predates
			// every store to the block) and fire after its last.
			addr = g.insts[seq].addr
			fl := g.blockStores[addr&^(lostWBGranule-1)]
			seq, seq2 = fl[0], fl[1]
		}
	} else {
		seq = rng.Next() % g.total
		switch st {
		case fault.StructL1ITag, fault.StructITLB:
			addr = g.insts[seq].pc
		}
	}
	// L2 lines carry SECDED check bits: the bit draw spans 0..63, where
	// 32..63 encode adjacent double-bit patterns (fault.AtStruct). The
	// wider range is conditional so every pre-existing structure's plan
	// is bit-for-bit what it was before L2 faults existed.
	bitRange := 32
	if st == fault.StructL2Line {
		bitRange = 64
	}
	t := Trial{
		Index:     i,
		Structure: st.String(),
		Seq:       seq,
		Seq2:      seq2,
		Bit:       uint8(rng.Intn(bitRange)),
		Addr:      addr,
	}
	if st == fault.StructRegFile {
		t.Reg = uint8(1 + rng.Intn(31))
	}
	return t
}

// Campaign runs a statistical fault-injection campaign. Trials are
// planned sequentially from the seed, executed on the shared worker
// pool (opt.Parallel), and reported in plan order, so the report is
// byte-identical however it is scheduled. opt.Insts is ignored — runs
// go to halt, sized by spec.TargetInsts.
//
// Each trial forks from a checkpoint of a memoized golden run and
// simulates only the slice of execution its fault can influence
// (checkpoint.go); the records it produces are byte-identical to full
// from-scratch simulations of every trial.
func Campaign(spec CampaignSpec, opt Options) (*CampaignReport, error) {
	start := time.Now()
	opt = opt.normalize()
	spec, defaulted := spec.withDefaults()
	wspec, ok := workload.ByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err := spec.Machine.Validate(); err != nil {
		return nil, err
	}
	for _, st := range spec.Structures {
		if st >= fault.NumStructs {
			return nil, fmt.Errorf("harness: unknown fault structure %d", st)
		}
		if st.NeedsRSQ() && !spec.Machine.HasRSQ() {
			return nil, fmt.Errorf("harness: structure %s requires an R-stream Queue; machine %s has none", st, spec.Machine.Name)
		}
	}

	bundle, err := bundleForSpec(spec, wspec)
	if err != nil {
		return nil, err
	}
	g := bundle.g

	// A structure with no victims in this workload cannot host a fault.
	// Drop it when the list was inferred; reject it when it was asked
	// for explicitly (silently sampling nothing would misreport).
	kept := spec.Structures[:0]
	for _, st := range spec.Structures {
		if v, sampled := g.victimsFor(st); sampled && len(v) == 0 {
			if !defaulted {
				return nil, fmt.Errorf("harness: workload %s has no eligible victims for structure %s", spec.Workload, st)
			}
			continue
		}
		kept = append(kept, st)
	}
	spec.Structures = kept

	// Plan the trials up front. Each trial is a pure function of
	// (seed, index) — see trialRNG — so the plan depends only on the
	// spec, and a shard plans just its own slice of the same plan. An
	// unsharded campaign is the one shard covering the whole plan.
	shard := ShardRange{Count: spec.Injections}
	if spec.Shard != nil {
		if err := spec.Shard.validate(spec.Injections); err != nil {
			return nil, err
		}
		shard = *spec.Shard
	}
	shard.Plan = spec.Injections
	trials := make([]Trial, shard.Count)
	for i := range trials {
		trials[i] = planTrial(spec.Seed, shard.Offset+i, spec.Structures, g)
	}

	// Execute. Each trial is independent and forks from the bundle's
	// checkpoint chain; results land in plan order. The sink (when
	// installed) flushes the longest completed prefix so downstream
	// writers stream records in order during the run.
	var (
		sinkMu   sync.Mutex
		sinkDone []bool
		sinkNext int
		sinkErr  error
	)
	if spec.TrialSink != nil {
		sinkDone = make([]bool, len(trials))
	}
	err = forEach(len(trials), opt.Parallel, func(i int) error {
		if err := bundle.runTrial(opt.Ctx, &trials[i], opt); err != nil {
			return err
		}
		// Triage escapes immediately, before the sink flushes the trial,
		// so streamed JSONL records carry their triage attachment inline.
		if spec.Triage && triageWanted(trials[i].outcome, spec.TriageDetected) {
			tstart := time.Now()
			if err := bundle.triageTrial(opt.Ctx, &trials[i], opt); err != nil {
				return err
			}
			if spec.TriageObserver != nil {
				spec.TriageObserver(trials[i].Outcome, time.Since(tstart).Seconds())
			}
		}
		if spec.TrialSink == nil {
			return nil
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		sinkDone[i] = true
		for sinkNext < len(trials) && sinkDone[sinkNext] {
			if sinkErr == nil {
				sinkErr = spec.TrialSink(trials[sinkNext])
			}
			sinkNext++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sinkErr != nil {
		return nil, fmt.Errorf("harness: trial sink: %w", sinkErr)
	}

	rep := shardReport(spec, g.total, shard, trials)
	if spec.Shard == nil {
		// A single-process campaign is the one-shard merge, so it is
		// finalised by exactly the code a distributed campaign is.
		if rep, err = MergeReports([]*CampaignReport{rep}); err != nil {
			return nil, err
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.InjectionsPerSec = float64(rep.Injected) / rep.WallSeconds
	}
	return rep, nil
}

// shardReport tallies one shard's executed trials, in plan order, into
// its report: per-structure integer counts and the width-1
// detection-latency histogram, from which finalize derives the rest.
func shardReport(spec CampaignSpec, goldenInsts uint64, shard ShardRange, trials []Trial) *CampaignReport {
	rep := &CampaignReport{
		Workload:    spec.Workload,
		Config:      spec.Machine.Name,
		Seed:        spec.Seed,
		GoldenInsts: goldenInsts,
		Structures:  make([]StructureCoverage, len(spec.Structures)),
		Shard:       &shard,
		Trials:      trials,
	}
	index := make(map[string]int, len(spec.Structures))
	for i, st := range spec.Structures {
		rep.Structures[i] = StructureCoverage{Structure: st.String(), InSphere: st.InSphere()}
		index[st.String()] = i
	}
	lat := stats.NewHistogram(1)
	for i := range trials {
		t := &trials[i]
		k := index[t.Structure]
		sc := &rep.Structures[k]
		sc.Injected++
		if t.Fired {
			sc.Fired++
		}
		sc.add(t.outcome)
		if t.outcome == fault.OutcomeDetected || t.outcome == fault.OutcomeRecovered {
			lat.Add(t.Latency)
		}
		if t.Locale != "" {
			sc.Localized++
			if t.Locale == spec.Structures[k].LevelGroup() {
				sc.LocCorrect++
			}
		}
		if t.Triage != nil {
			sc.Triaged++
			if t.Triage.FirstDivergence != nil {
				sc.Diverged++
				sc.DivergeCycleSum += t.Triage.CyclesToDivergence
			}
		}
	}
	for _, b := range lat.Buckets() {
		rep.LatencyHist = append(rep.LatencyHist, LatencyCell{Cycles: b[0], Count: b[1]})
	}
	rep.finalize(lat)
	return rep
}

// addCounts adds o's integer tallies into s.
func (s *StructureCoverage) addCounts(o *StructureCoverage) {
	s.Injected += o.Injected
	s.Fired += o.Fired
	s.Detected += o.Detected
	s.Recovered += o.Recovered
	s.SDC += o.SDC
	s.Masked += o.Masked
	s.Hang += o.Hang
	s.Corrected += o.Corrected
	s.Localized += o.Localized
	s.LocCorrect += o.LocCorrect
	s.Triaged += o.Triaged
	s.Diverged += o.Diverged
	s.DivergeCycleSum += o.DivergeCycleSum
}

// finalize derives every computed field of a freshly assembled report
// from its per-structure integer counts and its detection-latency
// histogram: the report totals, Effective, coverage and its Wilson 95%
// CIs, the latency mean/p95/max, and the localization totals and
// per-level rollup. Every report Campaign (per shard) or MergeReports
// builds is finished here exactly once, so a merged report is
// byte-identical to the single-process one by construction.
func (r *CampaignReport) finalize(lat *stats.Histogram) {
	// Coverage is (detected+recovered+corrected)/effective; zero
	// effective trials give coverage 0 with the vacuous interval [0, 1].
	cover := func(s *StructureCoverage) {
		s.Effective = s.Injected - s.Masked
		caught := s.Detected + s.Recovered + s.Corrected
		if s.Effective > 0 {
			s.Coverage = float64(caught) / float64(s.Effective)
		}
		s.CoverageLo, s.CoverageHi = stats.Wilson95(caught, s.Effective)
	}
	var total StructureCoverage
	for i := range r.Structures {
		cover(&r.Structures[i])
		total.addCounts(&r.Structures[i])
	}
	cover(&total)
	r.Injected, r.Fired, r.Effective = total.Injected, total.Fired, total.Effective
	r.OutcomeCounts = total.OutcomeCounts
	r.Coverage, r.CoverageLo, r.CoverageHi = total.Coverage, total.CoverageLo, total.CoverageHi
	r.Triaged, r.Diverged = total.Triaged, total.Diverged
	r.Localized, r.LocCorrect = total.Localized, total.LocCorrect
	if r.Localized > 0 {
		r.LocAccuracy = float64(r.LocCorrect) / float64(r.Localized)
		r.LocAccuracyLo, r.LocAccuracyHi = stats.Wilson95(r.LocCorrect, r.Localized)
	}
	r.Levels = computeLevels(r.Structures)
	if lat.Count() > 0 {
		r.DetectionLatencyMean = lat.Mean()
		r.DetectionLatencyP95 = lat.Percentile(95)
		r.DetectionLatencyMax = lat.Max()
	}
}

// levelOrder fixes the per-level rollup's row order.
var levelOrder = []string{"ram", "l1", "l2", "tlb", "pipeline"}

// computeLevels rolls per-structure coverage up by physical plane
// (fault.Struct.Level). Only levels with injections appear. Pure
// integer sums plus the same Wilson-interval formulas finalize uses, so
// the rollup is an exact function of the per-structure counts.
func computeLevels(structures []StructureCoverage) []LevelCoverage {
	byLevel := make(map[string]*StructureCoverage)
	for i := range structures {
		st, ok := fault.ParseStruct(structures[i].Structure)
		if !ok {
			continue
		}
		sum := byLevel[st.Level()]
		if sum == nil {
			sum = &StructureCoverage{}
			byLevel[st.Level()] = sum
		}
		sum.addCounts(&structures[i])
	}
	var out []LevelCoverage
	for _, name := range levelOrder {
		s := byLevel[name]
		if s == nil || s.Injected == 0 {
			continue
		}
		lv := LevelCoverage{
			Level: name, Injected: s.Injected, Fired: s.Fired, Effective: s.Injected - s.Masked,
			OutcomeCounts: s.OutcomeCounts, Localized: s.Localized, LocCorrect: s.LocCorrect,
		}
		caught := lv.Detected + lv.Recovered + lv.Corrected
		if lv.Effective > 0 {
			lv.Coverage = float64(caught) / float64(lv.Effective)
			lv.SDCRate = float64(lv.SDC) / float64(lv.Effective)
		}
		lv.CoverageLo, lv.CoverageHi = stats.Wilson95(caught, lv.Effective)
		lv.SDCRateLo, lv.SDCRateHi = stats.Wilson95(lv.SDC, lv.Effective)
		if lv.Localized > 0 {
			lv.LocAccuracy = float64(lv.LocCorrect) / float64(lv.Localized)
		}
		lv.LocAccuracyLo, lv.LocAccuracyHi = stats.Wilson95(lv.LocCorrect, lv.Localized)
		out = append(out, lv)
	}
	return out
}

// MergeReports reassembles the single-process campaign report from a
// complete set of shard reports. The merge is exact, not approximate:
// per-structure outcome counts are integer sums, and coverage, its
// Wilson 95% CI, localization and the detection-latency aggregates are
// recomputed by finalize from the merged counts and width-1 latency
// histograms. A single-process Campaign is itself the one-shard merge,
// so for a given seed the merged report is byte-identical (JSON, JSONL,
// and table) to it whatever the shard count
// (TestMergedShardsByteIdentical pins this for 1, 2, and 8 shards).
//
// It validates completeness: the shards must agree on workload, config,
// seed, golden length, and structure list, and their trial indices must
// tile [0, total) exactly — a lost or double-counted shard is an error,
// never a silently wrong report. WallSeconds/InjectionsPerSec are left
// zero for the caller (they belong to the distributed run, not to any
// one shard).
func MergeReports(shards []*CampaignReport) (*CampaignReport, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("harness: merge of zero shard reports")
	}
	ref := shards[0]
	rep := &CampaignReport{
		Workload:    ref.Workload,
		Config:      ref.Config,
		Seed:        ref.Seed,
		GoldenInsts: ref.GoldenInsts,
	}
	for _, s := range shards {
		if s.Shard == nil {
			return nil, fmt.Errorf("harness: merge input is not a shard report (no shard range)")
		}
		if s.Workload != ref.Workload || s.Config != ref.Config || s.Seed != ref.Seed {
			return nil, fmt.Errorf("harness: merging shards of different campaigns (%s/%s/%d vs %s/%s/%d)",
				s.Workload, s.Config, s.Seed, ref.Workload, ref.Config, ref.Seed)
		}
		if s.GoldenInsts != ref.GoldenInsts {
			return nil, fmt.Errorf("harness: shard golden runs disagree (%d vs %d insts) — workers simulated different programs",
				s.GoldenInsts, ref.GoldenInsts)
		}
		if len(s.Structures) != len(ref.Structures) {
			return nil, fmt.Errorf("harness: shard structure lists differ (%d vs %d)", len(s.Structures), len(ref.Structures))
		}
		if s.Shard.Plan != ref.Shard.Plan {
			return nil, fmt.Errorf("harness: shard plan sizes disagree (%d vs %d)", s.Shard.Plan, ref.Shard.Plan)
		}
	}
	// The shard ranges must tile [0, plan) exactly: a lost shard —
	// including the last one — or an overlapping reassignment duplicate
	// is an error here, never a silently wrong report.
	ranges := make([]ShardRange, len(shards))
	for i, s := range shards {
		ranges[i] = *s.Shard
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Offset < ranges[j].Offset })
	next := 0
	for _, r := range ranges {
		if r.Offset != next {
			return nil, fmt.Errorf("harness: shard set does not tile the plan: trials [%d,%d) missing or double-counted", next, r.Offset)
		}
		next = r.Offset + r.Count
	}
	if next != ref.Shard.Plan {
		return nil, fmt.Errorf("harness: shard set covers %d of %d planned trials", next, ref.Shard.Plan)
	}

	// Per-structure integer sums, in the reference shard's order (every
	// shard ran the same defaulted spec, so the order is identical — the
	// name check catches a worker that somehow disagreed) and the merged
	// latency histogram; finalize derives everything else.
	rep.Structures = make([]StructureCoverage, len(ref.Structures))
	for i, s := range ref.Structures {
		rep.Structures[i] = StructureCoverage{Structure: s.Structure, InSphere: s.InSphere}
	}
	lat := stats.NewHistogram(1)
	for _, s := range shards {
		for i := range s.Structures {
			if s.Structures[i].Structure != rep.Structures[i].Structure {
				return nil, fmt.Errorf("harness: shard structure order differs (%s vs %s)",
					s.Structures[i].Structure, rep.Structures[i].Structure)
			}
			rep.Structures[i].addCounts(&s.Structures[i])
		}
		for _, c := range s.LatencyHist {
			lat.AddN(c.Cycles, c.Count)
		}
		rep.Trials = append(rep.Trials, s.Trials...)
	}
	rep.finalize(lat)

	// Completeness: trial indices must tile [0, Injected) exactly. This
	// is the zero-lost, zero-double-counted guarantee the reassignment
	// protocol leans on. Shards that shipped no per-trial records (a
	// coordinator merging counts only) skip the check.
	if len(rep.Trials) > 0 {
		if uint64(len(rep.Trials)) != rep.Injected {
			return nil, fmt.Errorf("harness: merged %d trials for %d injections", len(rep.Trials), rep.Injected)
		}
		sort.Slice(rep.Trials, func(i, j int) bool { return rep.Trials[i].Index < rep.Trials[j].Index })
		for i := range rep.Trials {
			if rep.Trials[i].Index != i {
				return nil, fmt.Errorf("harness: merged trial plan has a gap or duplicate at index %d", i)
			}
		}
	}
	return rep, nil
}

// CampaignAll runs the paper's REESE-vs-baseline comparison that base
// describes and renders it as one table. It is the one meaning of a
// multi-campaign request, shared by the CLIs and the service: for each
// workload (all six when base.Workload is empty) base.Machine with REESE
// enabled, then base.Machine itself, each sampling those of
// base.Structures the machine can host (hostableStructures). Every
// campaign goes through run, in that order, so a caller chooses where
// it executes (Campaign, or a cluster of replicas) and what it does with
// each report as it lands.
func CampaignAll(base CampaignSpec, run func(CampaignSpec) (*CampaignReport, error)) (string, []CampaignReport, error) {
	names := []string{base.Workload}
	if base.Workload == "" {
		names = workload.Names()
	}
	t := stats.NewTable("Fault injection: outcome taxonomy by structure (REESE vs baseline)",
		"bench", "machine", "structure", "inj", "eff", "det", "rec", "sdc", "mask", "hang", "coverage", "95% CI")
	var all []CampaignReport
	for _, name := range names {
		for _, m := range []config.Machine{base.Machine.WithReese(), base.Machine} {
			spec := base
			spec.Workload, spec.Machine = name, m
			spec.Structures = hostableStructures(base.Structures, m)
			r, err := run(spec)
			if err != nil {
				return "", nil, err
			}
			machine := "baseline"
			if m.Reese.Enabled {
				machine = "REESE"
			}
			for _, s := range r.Structures {
				t.AddRow(r.Workload, machine, s.Structure,
					fmt.Sprint(s.Injected), fmt.Sprint(s.Effective),
					fmt.Sprint(s.Detected), fmt.Sprint(s.Recovered),
					fmt.Sprint(s.SDC), fmt.Sprint(s.Masked), fmt.Sprint(s.Hang),
					fmt.Sprintf("%.0f%%", s.Coverage*100),
					fmt.Sprintf("[%.0f%%, %.0f%%]", s.CoverageLo*100, s.CoverageHi*100))
			}
			all = append(all, *r)
		}
	}
	return t.String(), all, nil
}

// SpareSearch answers the paper's central question directly: how many
// spare integer ALUs does a given configuration need before the REESE
// machine's average IPC comes within tolerance (a fraction, e.g. 0.02)
// of the baseline's? It returns the spare count and the gap at each
// step.
func SpareSearch(base config.Machine, maxSpares int, tolerance float64, opt Options) (int, []float64, error) {
	fig, err := runGrid(grid{variants: []variant{{"Baseline", base}}}, opt)
	if err != nil {
		return 0, nil, err
	}
	baseAvg := fig.Average("Baseline")
	var gaps []float64
	for n := 0; n <= maxSpares; n++ {
		fig, err := runGrid(grid{variants: []variant{{"REESE", base.WithReese().WithSpares(n, 0)}}}, opt)
		if err != nil {
			return 0, nil, err
		}
		avg := fig.Average("REESE")
		gap := (baseAvg - avg) / baseAvg
		gaps = append(gaps, gap*100)
		if gap <= tolerance {
			return n, gaps, nil
		}
	}
	return -1, gaps, nil
}

// IdleCapacity measures the §4.1 premise: the fraction of issue slots
// and functional units a baseline machine leaves idle.
func IdleCapacity(opt Options) (string, error) {
	fig, err := runGrid(grid{variants: []variant{{"Baseline", config.Starting()}}}, opt)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Idle capacity on the baseline (paper §4.1 premise)",
		"bench", "IPC", "of width", "ALU util", "Mult util", "MemPort util")
	for _, name := range fig.Workloads {
		res := fig.result(name, "Baseline")
		t.AddRow(name,
			fmt.Sprintf("%.3f", res.IPC),
			fmt.Sprintf("%.0f%%", res.IPC/float64(config.Starting().Width)*100),
			fmt.Sprintf("%.0f%%", res.ALUUtil*100),
			fmt.Sprintf("%.0f%%", res.MultUtil*100),
			fmt.Sprintf("%.0f%%", res.MemPortUtil*100))
	}
	return t.String(), nil
}

// BitGridResult is one cell of a bit-position injection grid.
type BitGridResult struct {
	Bit      uint8
	Detected bool
	Latency  uint64
	// NotFired marks a cell whose injection never happened — the
	// injection point lay beyond the instructions the run committed — so
	// "not detected" would be meaningless.
	NotFired bool
}

// BitGrid injects one fault per bit position (0-31) at a fixed point in
// the workload and reports detection per position — demonstrating the
// comparator's single-bit completeness on real pipeline timing rather
// than in unit isolation.
func BitGrid(cfg config.Machine, workloadName string, atSeq uint64, opt Options) ([]BitGridResult, error) {
	opt = opt.normalize()
	out := make([]BitGridResult, 32)
	err := forEach(32, opt.Parallel, func(i int) error {
		bit := uint8(i)
		inj := &fault.AtSeq{Seq: atSeq, Bit: bit}
		cpu, err := newCPU(cfg, workloadName, 1, inj, opt)
		if err != nil {
			return err
		}
		res, err := cpu.RunContext(opt.Ctx, atSeq+20_000)
		if err != nil {
			return err
		}
		cell := BitGridResult{Bit: bit}
		if !inj.Fired() {
			// The program ended before the injection point: there is no
			// fault to detect, and reporting a missed detection would be
			// a lie.
			cell.NotFired = true
		} else if res.FaultsDetected == 1 {
			cell.Detected = true
			cell.Latency = uint64(res.DetectionLatencyMean)
		}
		out[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BitGridTable renders the grid.
func BitGridTable(grid []BitGridResult) string {
	t := stats.NewTable("Fault grid: one bit flip per position (detection + latency)",
		"bit", "detected", "latency (cycles)")
	for _, c := range grid {
		det := "no"
		lat := "-"
		switch {
		case c.NotFired:
			det = "not fired"
		case c.Detected:
			det = "yes"
			lat = fmt.Sprint(c.Latency)
		}
		t.AddRow(fmt.Sprint(c.Bit), det, lat)
	}
	return t.String()
}
