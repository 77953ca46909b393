package harness

// Checkpoint/fork fast-forward for fault campaigns.
//
// The old campaign engine simulated every trial from cycle 0, even
// though a trial's execution is byte-identical to the uninjected golden
// run until its fault fires, and usually reconverges with the golden
// run shortly after the fault is detected or dies out. This file
// removes both redundancies:
//
//   - One instrumented golden run per (workload, target, machine,
//     interval) takes periodic full-machine snapshots
//     (pipeline.Checkpoint: pipeline + oracle scalars, predictors,
//     caches, queues, plus a copy-on-write page image of architectural
//     memory). Each trial forks from the latest checkpoint that
//     provably precedes its injection point and simulates only the
//     suffix.
//   - At every later golden commit boundary the trial is compared
//     against the golden machine under sequence/cycle normalization,
//     on what the golden suffix observes (pipeline.Checkpoint.Converged
//     with the boundary's pipeline.SuffixReads). Once converged, the
//     rest of the run is spliced from the golden result instead of
//     simulated: final digests are reconstructed by folding the
//     trial's divergent shadow state with the golden suffix, and the
//     cycle count is the golden total shifted by the trial's boundary
//     offset. Trials that never reconverge (SDC, hangs) simply keep
//     simulating — the fallback is always sound.
//
// Everything here preserves the engine's core contract: equal specs
// produce byte-identical reports at any parallelism, and every
// per-trial record matches what a full from-scratch simulation of that
// trial would have produced.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/mem"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

// DefaultCheckpointInterval is the golden-run snapshot spacing in
// committed instructions when CampaignSpec.CheckpointInterval is 0.
// Smaller intervals shorten the simulated suffix per trial but grow
// snapshot cost and memory; 512 keeps both small at campaign scale.
const DefaultCheckpointInterval = 512

// emuGoldenCache memoizes the emulator-plane golden scan per
// (workload, target): the digest, victim-eligibility lists and the
// per-instruction golden record are pure functions of those two keys
// and are shared by every campaign — REESE and baseline machines
// alike.
var emuGoldenCache sync.Map // emuGoldenKey -> *emuGoldenEntry

type emuGoldenKey struct {
	workload string
	target   uint64
}

type emuGoldenEntry struct {
	once sync.Once
	g    *golden
	prog *program.Program
	err  error
}

// goldenForSpec is the memoizing front end to goldenScan. The returned
// golden is shared and must be treated as immutable.
func goldenForSpec(wspec workload.Spec, target uint64) (*golden, *program.Program, error) {
	v, _ := emuGoldenCache.LoadOrStore(emuGoldenKey{wspec.Name, target}, &emuGoldenEntry{})
	e := v.(*emuGoldenEntry)
	e.once.Do(func() {
		e.g, e.prog, e.err = goldenScan(wspec, target)
	})
	return e.g, e.prog, e.err
}

// bundleCache memoizes the instrumented golden pipeline run (snapshots
// and all) per (workload, target, machine, interval). A sweep that runs
// many campaigns on the same configuration — or a server replaying the
// same request — pays for the golden run once per process.
var bundleCache sync.Map // bundleKey -> *bundleEntry

type bundleKey struct {
	workload string
	target   uint64
	machine  config.Machine
	interval uint64
}

type bundleEntry struct {
	once sync.Once
	b    *campaignBundle
	err  error
}

// campaignBundle is everything one (workload, machine) pair's trials
// fork from: the emulator-plane golden, the golden pipeline run's final
// result and digests, the checkpoint chain, and per-boundary metadata
// for splicing.
type campaignBundle struct {
	g *golden

	// checkpoints[0] is the pre-run state (committed 0, always fork-
	// eligible); the rest land one per crossed interval boundary, at the
	// exact committed counts in marks (marks[i] ==
	// checkpoints[i+1].Committed).
	checkpoints []*pipeline.Checkpoint
	marks       []uint64
	// written[i] is the set of (int, fp) registers the golden run
	// writes at or after checkpoints[i] — the registers whose final
	// value the golden suffix determines regardless of a trial's shadow
	// state at the boundary.
	written [][2]uint32
	// reads[i] is what the golden run observes at or after
	// checkpoints[i]: the predictor entries it consults and the cache
	// and TLB sets it misses in and lines it hits. Convergence at a
	// boundary compares only that (recovery replay retrains tables and
	// refills cache sets, so exact equality would reject trials over
	// state that is never read again).
	reads []*pipeline.SuffixReads

	finalRes    pipeline.Result
	finalCommit emu.Digest
	finalOracle emu.Digest
	// finalMem is the golden run's final architectural memory image.
	// Direct memory-plane corruption (a flipped RAM word no instruction
	// ever reloads, a lost write-back) is invisible to the register/
	// store/output digests; trials that run to completion compare their
	// final memory against this image to catch such escapes.
	finalMem *mem.PageImage

	budget uint64
}

// workers recycles per-trial machines and memory images across every
// bundle in the process, so the number of 8 MiB images is bounded by
// concurrent trials, not by bundles times concurrency. A recycled
// worker serves any bundle: forking refills a CPU of any machine or
// program, and adopt copies only the pages that differ from the
// wanted image (snapshot pages are unique across bundles, the shared
// zero page aside, so page identity still implies equal content).
var workers = sync.Pool{New: func() any { return newCampaignWorker() }}

// recorders recycles triage flight-recorder rings (triage.go): Reset
// reuses the backing array instead of zeroing a fresh ring per escape.
var recorders sync.Pool // *obs.Recorder

// bundleForSpec builds (or returns the memoized) campaign bundle for a
// defaulted spec.
func bundleForSpec(spec CampaignSpec, wspec workload.Spec) (*campaignBundle, error) {
	key := bundleKey{
		workload: spec.Workload,
		target:   spec.TargetInsts,
		machine:  spec.Machine,
		interval: spec.CheckpointInterval,
	}
	v, _ := bundleCache.LoadOrStore(key, &bundleEntry{})
	e := v.(*bundleEntry)
	e.once.Do(func() {
		e.b, e.err = buildBundle(spec, wspec)
	})
	return e.b, e.err
}

// buildBundle runs the instrumented golden pipeline simulation: one
// full run with dirty-tracked memory, snapshotting the whole machine at
// every interval boundary, then derives the splice metadata.
func buildBundle(spec CampaignSpec, wspec workload.Spec) (*campaignBundle, error) {
	g, prog, err := goldenForSpec(wspec, spec.TargetInsts)
	if err != nil {
		return nil, err
	}
	cpu, err := pipeline.New(spec.Machine, prog, fault.None{})
	if err != nil {
		return nil, err
	}
	b := &campaignBundle{
		g:      g,
		budget: 2*g.total + 20_000,
	}

	memory := cpu.OracleMemory()
	memory.EnableDirtyTracking()
	img := mem.SnapshotPages(memory.Bytes(), nil, nil)
	memory.ClearDirty()
	b.checkpoints = append(b.checkpoints, cpu.Snapshot(img))

	// Per-interval read logs (reads[j] covers checkpoint j to j+1, the
	// last one runs to halt); unioned backwards into suffix read-sets
	// below.
	reads := []*pipeline.SuffixReads{cpu.NewSuffixReads()}
	cpu.SetSuffixReads(reads[0])

	interval := spec.CheckpointInterval
	var hookMarks []uint64
	for m := interval; m < g.total; m += interval {
		hookMarks = append(hookMarks, m)
	}
	cpu.SetBoundaryHook(hookMarks, func(c *pipeline.CPU) bool {
		next := mem.SnapshotPages(memory.Bytes(), memory.DirtyPages(), img)
		memory.ClearDirty()
		img = next
		b.checkpoints = append(b.checkpoints, c.Snapshot(img))
		reads = append(reads, c.NewSuffixReads())
		c.SetSuffixReads(reads[len(reads)-1])
		return false
	})

	res, err := cpu.Run(b.budget)
	if err != nil {
		return nil, fmt.Errorf("harness: golden pipeline run of %s on %s: %w", spec.Workload, spec.Machine.Name, err)
	}
	b.finalRes = res
	b.finalCommit = cpu.CommitDigest()
	b.finalOracle = cpu.OracleDigest()
	b.finalMem = mem.SnapshotPages(memory.Bytes(), memory.DirtyPages(), img)
	// The splice algebra assumes the golden pipeline run retires the
	// exact architectural work of the emulator reference. A mismatch is
	// a simulator bug; refusing here beats silently misclassifying
	// every spliced trial.
	if b.finalCommit != g.digest || b.finalOracle != g.digest {
		return nil, fmt.Errorf("harness: golden pipeline run of %s on %s diverged from the emulator reference", spec.Workload, spec.Machine.Name)
	}

	b.marks = make([]uint64, 0, len(b.checkpoints)-1)
	for _, ck := range b.checkpoints[1:] {
		b.marks = append(b.marks, ck.Committed)
	}

	// reads[i]: everything observed at or after checkpoints[i], by
	// reverse union of the interval logs in place.
	cpu.SetSuffixReads(nil)
	if len(reads) != len(b.checkpoints) {
		return nil, fmt.Errorf("harness: %d read intervals for %d checkpoints", len(reads), len(b.checkpoints))
	}
	for i := len(reads) - 2; i >= 0; i-- {
		reads[i+1].OrInto(reads[i])
	}
	b.reads = reads

	// written[i]: registers the golden run writes at instruction index
	// >= checkpoints[i].Committed, by one backward scan over the
	// golden record's destination registers.
	b.written = make([][2]uint32, len(b.checkpoints))
	var intM, fpM uint32
	bi := len(b.checkpoints) - 1
	for idx := int64(g.total) - 1; idx >= 0; idx-- {
		for bi >= 0 && b.checkpoints[bi].Committed == uint64(idx)+1 {
			b.written[bi] = [2]uint32{intM, fpM}
			bi--
		}
		if gi := &g.insts[idx]; gi.dest != destNone {
			if gi.destFP {
				fpM |= 1 << (gi.dest & 31)
			} else {
				intM |= 1 << (gi.dest & 31)
			}
		}
	}
	for bi >= 0 {
		b.written[bi] = [2]uint32{intM, fpM}
		bi--
	}
	return b, nil
}

// forkPoint returns the index of the latest checkpoint a fault aimed at
// seq can fork from. Checkpoint 0 (the pre-run state) is always
// eligible.
func (b *campaignBundle) forkPoint(seq uint64) int {
	for i := len(b.checkpoints) - 1; i > 0; i-- {
		if b.checkpoints[i].ForkEligible(seq) {
			return i
		}
	}
	return 0
}

// boundaryIndex maps a trial's committed count at a boundary hook to
// the matching checkpoint index. A miss (the trial's commit bundle
// overshot the golden boundary by a different amount) means states
// cannot be aligned at this boundary; the caller keeps simulating.
func (b *campaignBundle) boundaryIndex(committed uint64) (int, bool) {
	i := sort.Search(len(b.marks), func(i int) bool { return b.marks[i] >= committed })
	if i < len(b.marks) && b.marks[i] == committed {
		return i + 1, true
	}
	return 0, false
}

// campaignWorker is one recycled trial executor: a fork-destination CPU
// and a memory image restored by page diffing between trials.
type campaignWorker struct {
	cpu *pipeline.CPU
	mem *program.Memory
	// prov[p] identifies (by page-content address) which snapshot page
	// the worker's page p currently equals; nil means unknown. Pages the
	// previous trial dirtied are invalidated, so adoption copies only
	// pages that actually differ from the wanted image.
	prov []*byte
}

// newCampaignWorker makes a worker whose memory is blank: every page is
// zero and known to equal the shared zero page, so the first adopt
// copies only the image's non-zero pages and the rest of the 8 MiB is
// never touched.
func newCampaignWorker() *campaignWorker {
	w := &campaignWorker{mem: program.NewMemory()}
	w.mem.EnableDirtyTracking()
	w.prov = make([]*byte, mem.NumPages(len(w.mem.Bytes())))
	for p := range w.prov {
		w.prov[p] = &mem.ZeroPage()[0]
	}
	return w
}

// adopt restores the worker's memory to the checkpoint image, copying
// only pages whose provenance differs, and resets dirty tracking so the
// trial's own writes can be diffed at reconvergence boundaries.
func (w *campaignWorker) adopt(img *mem.PageImage) {
	for p, d := range w.mem.DirtyPages() {
		if d {
			w.prov[p] = nil
		}
	}
	for p := 0; p < img.NumPages(); p++ {
		pg := img.PageAt(p)
		ptr := &pg[0]
		if w.prov[p] == ptr {
			continue
		}
		w.mem.Overwrite(p*mem.PageSize, pg)
		w.prov[p] = ptr
	}
	w.mem.ClearDirty()
}

// memConverged reports whether the worker's live memory equals the
// golden boundary image. Only pages the trial wrote since the fork, or
// that the golden run changed between fork and boundary (different page
// identity), can differ; everything else is byte-identical by
// construction and is skipped.
func (w *campaignWorker) memConverged(fork, bound *mem.PageImage) bool {
	dirty := w.mem.DirtyPages()
	live := w.mem.Bytes()
	for p := 0; p < bound.NumPages(); p++ {
		bp := bound.PageAt(p)
		fp := fork.PageAt(p)
		if !dirty[p] && &fp[0] == &bp[0] {
			continue
		}
		lo := p * mem.PageSize
		if !bytes.Equal(live[lo:lo+len(bp)], bp) {
			return false
		}
	}
	return true
}

// memDiff measures how the trial's final memory differs from the
// golden final image: the count of differing 32-bit words and the
// address span [lo, hi] they cover. Pages neither the trial wrote nor
// the golden run changed after the fork are identical by construction
// and are skipped, same as memConverged.
func (w *campaignWorker) memDiff(fork, final *mem.PageImage) (words int, lo, hi uint32) {
	dirty := w.mem.DirtyPages()
	live := w.mem.Bytes()
	lo = ^uint32(0)
	for p := 0; p < final.NumPages(); p++ {
		bp := final.PageAt(p)
		fp := fork.PageAt(p)
		if !dirty[p] && &fp[0] == &bp[0] {
			continue
		}
		base := p * mem.PageSize
		lv := live[base : base+len(bp)]
		if bytes.Equal(lv, bp) {
			continue
		}
		for o := 0; o+4 <= len(bp); o += 4 {
			if lv[o] != bp[o] || lv[o+1] != bp[o+1] || lv[o+2] != bp[o+2] || lv[o+3] != bp[o+3] {
				words++
				a := uint32(base + o)
				if a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
		}
	}
	if words == 0 {
		lo = 0
	}
	return words, lo, hi
}

// runTrial executes one planned trial by forking from the nearest
// eligible checkpoint, filling in the trial's outcome fields exactly as
// a full from-scratch simulation would have.
func (b *campaignBundle) runTrial(ctx context.Context, t *Trial, opt Options) error {
	return b.runTrialInstr(ctx, t, opt, nil)
}

// runTrialInstr is runTrial with an optional instrumentation hook,
// invoked on the forked machine just before it runs. The triage replay
// (triage.go) arms the flight recorder and the lockstep commit watch
// through it; both are pure observers, so an instrumented run is
// byte-identical to a bare one.
func (b *campaignBundle) runTrialInstr(ctx context.Context, t *Trial, opt Options, instrument func(*pipeline.CPU)) error {
	st, _ := fault.ParseStruct(t.Structure)
	inj := &fault.AtStruct{Struct: st, Seq: t.Seq, Bit: t.Bit, Reg: t.Reg, Addr: t.Addr, Seq2: t.Seq2}

	w := workers.Get().(*campaignWorker)
	defer workers.Put(w)

	fork := b.checkpoints[b.forkPoint(t.Seq)]
	w.adopt(fork.Mem)
	cpu, err := fork.Fork(w.mem, inj, w.cpu)
	if err != nil {
		return err
	}
	w.cpu = cpu
	cpu.SetProgress(opt.Progress)
	cpu.SetHangFastForward(true)
	if instrument != nil {
		instrument(cpu)
	}

	// At every golden boundary after the fault fires, try to splice:
	// if the whole machine (micro-architecture, oracle scalars, memory)
	// has reconverged with the golden state, the rest of the run is the
	// golden suffix and needs no simulation.
	splicedAt := -1
	var splicedCommit emu.Digest
	cpu.SetBoundaryHook(b.marks, func(c *pipeline.CPU) bool {
		if !inj.Fired() {
			return false
		}
		bi, ok := b.boundaryIndex(c.Committed())
		if !ok {
			return false
		}
		ck := b.checkpoints[bi]
		if !ck.Converged(c, b.reads[bi]) {
			return false
		}
		if !w.memConverged(fork.Mem, ck.Mem) {
			return false
		}
		splicedAt = bi
		splicedCommit = b.spliceCommitDigest(bi, c.CommitDigest())
		return true
	})

	res, err := cpu.RunContext(ctx, b.budget)
	if err != nil {
		return err
	}

	commit, oracle := cpu.CommitDigest(), cpu.OracleDigest()
	if splicedAt >= 0 {
		ck := b.checkpoints[splicedAt]
		// The trial ran [fork, boundary] live; the golden run covers the
		// rest. Total cycles are the golden total shifted by how far the
		// trial's boundary arrival drifted from the golden run's (a
		// recovery replays instructions, so the drift is the recovery
		// penalty and stays in the final count).
		res.Cycles = b.finalRes.Cycles + (res.Cycles - ck.Cycle)
		res.Committed = b.finalRes.Committed
		res.Hanged = false
		commit, oracle = splicedCommit, b.finalOracle
	}

	t.Fired = inj.Fired()
	t.spliced = splicedAt >= 0
	t.outcome = classify(res, commit, oracle, b.g.digest)
	// Carried for the triage pass: the exact digests classification saw
	// (spliced when the trial spliced) verify a replay byte for byte, the
	// Brent probe's loop period explains hangs, and the injection cycle
	// anchors prefix verification of early-stopped replays.
	t.commitDig, t.oracleDig = commit, oracle
	t.hangPeriod = res.HangPeriod
	t.faultCycle = cpu.FaultCycle()

	// Direct memory-plane corruption can escape every digest: a flipped
	// RAM word nothing reloads, a reverted write-back. Trials that ran
	// live to completion compare their final memory against the golden
	// image; a spliced trial proved its memory golden at the boundary
	// and inherits the golden suffix, so its final memory is golden by
	// construction, a hung trial's memory is mid-flight (the hang
	// verdict already stands on its own), and an early-stopped triage
	// replay's memory is mid-flight too — its caller ignores the
	// classification fields entirely.
	diffWords, diffLo, diffHi := 0, uint32(0), uint32(0)
	trialOut := b.g.out
	if splicedAt < 0 && !res.Hanged && !cpu.StopRequested() {
		diffWords, diffLo, diffHi = w.memDiff(fork.Mem, b.finalMem)
		trialOut = cpu.Output()
	}
	t.diffWords, t.diffLo = diffWords, diffLo
	switch {
	case inj.EccCorrected():
		// SECDED absorbed a single-bit flip: effective, never an escape.
		t.outcome = fault.OutcomeCorrected
	case inj.EccDetected() && t.outcome != fault.OutcomeHang:
		// Double-bit flip flagged detected-uncorrectable by SECDED.
		t.outcome = fault.OutcomeDetected
	case diffWords > 0 && t.outcome == fault.OutcomeMasked:
		t.outcome = fault.OutcomeSDC
	case diffWords > 0 && t.outcome == fault.OutcomeRecovered:
		t.outcome = fault.OutcomeDetected
	}
	t.Outcome = t.outcome.String()
	t.Cycles = res.Cycles
	t.Committed = res.Committed
	t.Latency = 0
	if t.outcome == fault.OutcomeDetected || t.outcome == fault.OutcomeRecovered {
		t.Latency = res.DetectionLatencyMax
	}
	t.Locale = ""
	if t.outcome != fault.OutcomeMasked {
		t.Locale = localize(symptoms{
			eccCorrected: inj.EccCorrected(),
			eccDetected:  inj.EccDetected(),
			detections:   res.FaultsDetected,
			hanged:       t.outcome == fault.OutcomeHang,
			diffWords:    diffWords,
			diffLo:       diffLo,
			diffHi:       diffHi,
		}, b.g.out, trialOut)
	}
	return nil
}

// spliceCommitDigest reconstructs the final commit digest of a trial
// that reconverged at boundary bi, without simulating the suffix:
//
//   - registers the golden run writes in the suffix end at their golden
//     final values; the rest keep the trial's boundary values (this is
//     how a committed-but-dead corruption still surfaces as SDC);
//   - the store digest folds the golden suffix store sequence onto the
//     trial's boundary hash (commit order and values match the golden
//     suffix exactly once converged — only the prefix hash can differ);
//   - output, halt state, and counts are the golden finals (the oracle
//     comparison behind Converged requires the boundary output to
//     match byte-for-byte).
func (b *campaignBundle) spliceCommitDigest(bi int, boundary emu.Digest) emu.Digest {
	out := b.finalCommit
	wInt, wFP := b.written[bi][0], b.written[bi][1]
	for r := 0; r < 32; r++ {
		if wInt&(1<<r) == 0 {
			out.Regs[r] = boundary.Regs[r]
		}
		if wFP&(1<<r) == 0 {
			out.FRegs[r] = boundary.FRegs[r]
		}
	}
	h := boundary.StoreHash
	for _, k := range b.g.stores[b.checkpoints[bi].StoreCount:] {
		s := &b.g.insts[k]
		h = emu.MixStore(h, s.addr, uint32(s.width), s.storeValue)
	}
	out.StoreHash = h
	return out
}
