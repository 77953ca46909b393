// Package pipeline is the cycle-level out-of-order superscalar timing
// simulator — the equivalent of SimpleScalar 2.0's sim-outorder, which
// the REESE paper modified. It models fetch (with gshare branch
// prediction, BTB and return-address stack), dispatch into a Register
// Update Unit and Load/Store Queue, operand-ready issue to a
// functional-unit pool, writeback, and in-order commit. With REESE
// enabled, completed instructions pass through the R-stream Queue and a
// result comparator before retiring (internal/reese).
//
// The simulator is execution-driven: a functional emulator (the oracle)
// runs ahead at fetch time and supplies true values and branch outcomes;
// the pipeline decides *when* everything happens. Branch mispredictions
// stall fetch until the branch resolves — the standard approximation
// that charges the full misprediction penalty without simulating
// wrong-path instructions.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"reese/internal/bpred"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/obs"
	"reese/internal/program"
	"reese/internal/reese"
	"reese/internal/ring"
	"reese/internal/ruu"
	"reese/internal/stats"
)

// redirectPenalty is the extra front-end refill charged after a branch
// misprediction resolves (on top of waiting for resolution itself).
const redirectPenalty = 2

// recoveryPenalty is the pipeline-drain cost charged when a detected
// fault flushes the machine.
const recoveryPenalty = 4

// DefaultHangLimit is the no-commit watchdog threshold: a run that goes
// this many cycles without retiring a single instruction is declared
// hung and terminated cleanly (Result.Hanged). Even the deepest
// realistic stall (a full window behind an L2-missing load) resolves in
// hundreds of cycles, so 100k cycles of commit silence means a fault
// wedged the machine — e.g. a corrupted fetch PC marching off the text
// segment. SetHangLimit overrides it (tests use small values).
const DefaultHangLimit = 100_000

// fetchEntry is one instruction waiting in the fetch queue.
type fetchEntry struct {
	tr           emu.Trace
	mispredicted bool
	// histSnap is the predictor history this branch's prediction used,
	// carried to resolution so training hits the same table entry.
	histSnap uint32
	// bogus marks wrong-path instructions.
	bogus bool
	// fetchedAt is the cycle the entry entered the queue, carried so the
	// flight recorder can backdate the FETCH event at dispatch time.
	fetchedAt uint64
}

// CPU is one simulated processor instance. Create with New, run with
// Run; a CPU is single-use.
type CPU struct {
	cfg    config.Machine
	oracle *emu.Machine
	prog   *program.Program

	hier *mem.Hierarchy
	pool *fu.Pool
	pred bpred.Predictor
	btb  *bpred.BTB
	ras  *bpred.RAS

	ruu ruu.RUU
	lsq ruu.LSQ
	// scheme is the redundancy organisation (scheme.go): baseline,
	// R-stream Queue, or duplicate-at-dispatch.
	scheme scheme

	injector fault.Injector
	// sites is non-nil when injector also implements the
	// structure-addressed hook sites (oracle step, RSQ enqueue); set once
	// in New so the hot path pays a nil check, not a type assertion.
	sites fault.SiteInjector
	// stuck, when non-nil, is the permanent single-unit fault the
	// injector is (fault.StuckUnit); resolved with sites.
	stuck *fault.StuckUnit

	// fetchQ holds FetchQueueSize entries in a fixed ring, so
	// steady-state fetch never allocates.
	fetchQ ring.Ring[fetchEntry]
	// replayQ holds traces to re-fetch after fault recovery, consumed
	// from replayHead; replayScratch is the spare buffer recover() swaps
	// in when rebuilding the queue, so repeated recoveries reuse the
	// same two backing arrays.
	replayQ       []emu.Trace
	replayHead    int
	replayScratch []emu.Trace
	// pending is the real-path trace pushed back by an I-cache miss
	// (valid when hasPending). wpPending is its wrong-path equivalent,
	// kept separate so a wrong-path I-cache miss can never leak a bogus
	// trace into the real stream (it is dropped at squash).
	pending      emu.Trace
	hasPending   bool
	wpPending    emu.Trace
	hasWPPending bool
	// trScratch/wpScratch are the stable homes for the trace handed out
	// by nextTrace/wrongPathTrace each fetch slot, so returning a
	// pointer never forces a heap allocation.
	trScratch emu.Trace
	wpScratch emu.Trace
	// dec is prog's pre-decoded text, consulted by wrong-path fetch.
	dec      *program.DecodedText
	traceW   io.Writer     // pipeline event trace sink (nil = off)
	recorder *obs.Recorder // flight recorder ring (nil = off)

	cycle        uint64
	fetchReadyAt uint64 // I-cache miss / redirect gate
	fetchStalled bool   // waiting on a mispredicted branch to resolve

	// Wrong-path state (config.ModelWrongPath): after a misprediction,
	// fetch decodes down the predicted (wrong) path until the branch
	// resolves and the tail is squashed.
	wrongPath  bool
	wpPC       uint32 // next wrong-path fetch address
	wpLsqMark  uint64 // LSQ position at wrong-path entry (squash point)
	wpHistSnap uint32 // predictor history to restore at squash
	wpMarked   bool   // wpLsqMark captured for the current wrong path
	wpFetched  uint64 // wrong-path instructions fetched (stat)
	wpSquashed uint64 // wrong-path instructions squashed from the window
	oracleDone bool   // oracle reached halt
	done       bool   // halt retired
	permError  bool   // persistent fault: machine stopped

	committed     uint64
	instLimit     uint64
	fastForwarded uint64

	// No-commit watchdog: if hangLimit cycles pass without a single
	// commit, the run terminates cleanly with Result.Hanged set (a fault
	// can wedge the machine; a campaign worker must not wedge with it).
	hangLimit uint64
	hanged    bool
	// Watchdog position — CPU fields rather than RunContext locals so a
	// forked machine (snapshot.go) resumes the golden run's no-commit
	// window exactly where the snapshot left it.
	lastCommitted   uint64
	lastCommitCycle uint64

	// Commit-count boundary hook (snapshot.go): when hookFn is non-nil
	// the cycle loop invokes it once whenever committed first reaches
	// hookMarks[hookIdx]. The golden instrumented run snapshots there;
	// forked trials attempt to splice back onto the golden run there. A
	// true return stops the run.
	hookMarks []uint64
	hookIdx   int
	hookFn    func(*CPU) bool

	// hookHorizon is one past the highest sequence number ever presented
	// to the writeback/RSQ fault-injection sites. A checkpoint is a safe
	// fork point for a fault at seq only if no site call at or beyond seq
	// happened before it (converge.go's fork-eligibility rule).
	hookHorizon uint64

	// hangFF enables the periodicity hang fast-forward (converge.go);
	// ffScratch is its reusable probe snapshot and ffProbeAge the commit-
	// drought depth the probe was captured at (0 = no live probe).
	hangFF     bool
	ffScratch  *CPU
	ffProbeAge uint64
	// hangPeriod is the loop period (cycles) the hang fast-forward
	// proved, 0 when the watchdog fired without a periodicity proof.
	hangPeriod uint64

	// faultCycle is the cycle the injector first fired (0 = not yet) —
	// the anchor for the triage recorder window and divergence deltas.
	faultCycle uint64
	// stopReq makes the running cycle loop return at the end of the
	// current cycle, as a normal (non-error) result (RequestStop).
	stopReq bool
	// recFreeze, when non-zero, freezes the flight recorder recFreeze
	// cycles after faultCycle: the ring then holds a window around the
	// injection instead of the tail of the run. Marker events
	// (fault/mismatch/recovery/divergence) bypass the freeze.
	recFreeze uint64
	// commitWatch, when non-nil, observes every architectural retire in
	// program order with the values actually committed — the triage
	// pass's lockstep tap (SetCommitWatch).
	commitWatch func(seq, cycle uint64, tr emu.Trace, resultP, addrP, storeValueP uint32)

	// Shadow architectural state rebuilt from latched commit values
	// (what the timing machine actually retired, as opposed to the
	// oracle's always-clean state). CommitDigest summarizes it; fault
	// campaigns compare it against a golden run to detect SDC.
	shadowRegs  [isa.NumRegs]uint32
	shadowFRegs [isa.NumRegs]uint32
	storeHash   uint64
	storeCount  uint64

	// progress, when non-nil, receives committed-instruction deltas at
	// every context-check interval — a liveness heartbeat an external
	// watchdog can sample without touching the cycle loop (SetProgress).
	progress     *atomic.Uint64
	progressSeen uint64

	// Fault bookkeeping.
	injected    uint64
	detected    uint64
	silent      uint64 // faults committed without detection (baseline)
	detectLat   *stats.Histogram
	recoveries  uint64
	lastBadPC   uint32
	lastBadLive bool

	// Stall accounting. fetch*/dispatch* are legacy event counters;
	// stalls is the per-slot attribution matrix (every unused dispatch,
	// issue, and commit slot charged to exactly one cause per cycle).
	fetchICacheStallCycles uint64
	fetchBranchStallCycles uint64
	dispatchRUUFull        uint64
	dispatchLSQFull        uint64
	stalls                 obs.Matrix
	// Per-cycle attribution scratch, reset in step: dispCause is the
	// first dispatch-blocking condition seen this cycle; issueNotReady /
	// issueNoFU record what the issue scans skipped over; commitBlock is
	// the cause commit() computed for its unused slots.
	dispCause     obs.StallCause
	issueNotReady bool
	issueNoFU     bool
	commitBlock   obs.StallCause

	// Branch accounting.
	branches    uint64
	mispredicts uint64

	// classCommits counts retired instructions per functional-unit
	// class (the dynamic instruction mix).
	classCommits [8]uint64
}

// New builds a CPU for prog under machine configuration cfg, with
// injector supplying soft errors (pass fault.None{} for none).
func New(cfg config.Machine, prog *program.Program, injector fault.Injector) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oracle, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	pool, err := fu.NewPool(cfg.FU)
	if err != nil {
		return nil, err
	}
	pred, err := newPredictor(cfg)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.NewBTB(cfg.BTBSets, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	ras, err := bpred.NewRAS(cfg.RASSize)
	if err != nil {
		return nil, err
	}
	r, err := ruu.New(cfg.RUUSize)
	if err != nil {
		return nil, err
	}
	lsq, err := ruu.NewLSQ(cfg.LSQSize)
	if err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:       cfg,
		oracle:    oracle,
		prog:      prog,
		dec:       prog.Decoded(),
		fetchQ:    ring.Make[fetchEntry](cfg.FetchQueueSize),
		hier:      hier,
		pool:      pool,
		pred:      pred,
		btb:       btb,
		ras:       ras,
		ruu:       *r,
		lsq:       *lsq,
		detectLat: stats.NewHistogram(1),
		hangLimit: DefaultHangLimit,
		storeHash: emu.DigestSeed,
	}
	c.shadowRegs[isa.RegSP] = program.StackTop
	c.setInjector(injector)
	c.hier.SetWordPlane(c.oracle.Mem())
	if c.scheme, err = newScheme(cfg.Reese); err != nil {
		return nil, err
	}
	return c, nil
}

// setInjector installs inj (nil for none) and resolves its optional
// structure-addressed hook sites and stuck unit once, so the hot path
// pays a nil check rather than a type assertion. A fork inherits the
// checkpoint's fields, so every one is reset here.
func (c *CPU) setInjector(inj fault.Injector) {
	if inj == nil {
		inj = fault.None{}
	}
	c.injector = inj
	c.sites, _ = inj.(fault.SiteInjector)
	c.stuck = nil
	if s, ok := inj.(fault.StuckUnit); ok {
		// Allocate only here: taking &s would move s to the heap on
		// every call, stuck or not.
		c.stuck = new(fault.StuckUnit)
		*c.stuck = s
	}
}

// Result is the outcome of a simulation run.
type Result struct {
	Config    string
	Workload  string
	Cycles    uint64
	Committed uint64
	IPC       float64

	Halted    bool
	PermError bool
	// Hanged reports that the no-commit watchdog terminated the run:
	// the machine went DefaultHangLimit (or SetHangLimit) cycles
	// without retiring an instruction.
	Hanged bool
	// HangPeriod is the loop period (cycles) the Brent-style hang
	// fast-forward proved before jumping to the watchdog; 0 when the
	// run did not hang or hung without a periodicity proof.
	HangPeriod uint64 `json:",omitempty"`
	// FastForwarded is the number of instructions skipped functionally
	// before timing began.
	FastForwarded uint64

	Branches          uint64
	Mispredicts       uint64
	BranchAcc         float64
	FetchICacheStalls uint64
	FetchBranchStalls uint64
	DispatchRUUFull   uint64
	DispatchLSQFull   uint64

	// Stalls attributes every unused dispatch/issue/commit slot over
	// the run to one cause (see obs.StallCause; reese-sim -why renders
	// it as a table).
	Stalls obs.StallBreakdown

	// ALUUtil etc. are mean functional-unit utilizations over the run.
	ALUUtil, MultUtil, MemPortUtil float64

	// Mix is the committed dynamic instruction mix by class.
	Mix InstructionMix

	// WrongPathFetched/Squashed count wrong-path activity (only with
	// config.ModelWrongPath).
	WrongPathFetched  uint64
	WrongPathSquashed uint64

	L1I, L1D, L2 mem.CacheStats

	// Reese is non-nil for REESE machines. RSQOccupancyMean/Max sample
	// the queue's fill level per cycle, which is also the machine's
	// P-to-R-stream separation in instructions (the paper's Δt, §2).
	Reese            *reese.Stats
	RSQOccupancyMean float64
	RSQOccupancyMax  uint64

	// Fault-injection outcome.
	FaultsInjected uint64
	FaultsDetected uint64
	FaultsSilent   uint64
	Recoveries     uint64
	// DetectionLatency summarises cycles from injection to detection.
	DetectionLatencyMean float64
	DetectionLatencyMax  uint64
}

// newPredictor builds the configured branch predictor.
func newPredictor(cfg config.Machine) (bpred.Predictor, error) {
	switch cfg.Predictor {
	case config.PredGshare:
		return bpred.NewGshare(cfg.GshareBits)
	case config.PredBimodal:
		return bpred.NewBimodal(cfg.GshareBits)
	case config.PredCombining:
		g, err := bpred.NewGshare(cfg.GshareBits)
		if err != nil {
			return nil, err
		}
		b, err := bpred.NewBimodal(cfg.GshareBits)
		if err != nil {
			return nil, err
		}
		return bpred.NewCombining(g, b, cfg.GshareBits)
	case config.PredStaticTaken:
		return &bpred.Static{Taken: true}, nil
	case config.PredStaticNotTaken:
		return &bpred.Static{}, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown predictor kind %d", cfg.Predictor)
	}
}

// FastForward functionally executes n instructions on the oracle
// before timing simulation begins — SimpleScalar's -fastfwd. The
// skipped instructions update architectural state but cost no cycles
// and leave caches and predictors cold. It must be called before Run.
func (c *CPU) FastForward(n uint64) (uint64, error) {
	if c.cycle != 0 || c.committed != 0 {
		return 0, fmt.Errorf("pipeline: FastForward after simulation started")
	}
	done, err := c.oracle.Run(n)
	if err != nil {
		return done, err
	}
	if c.oracle.Halted() {
		// Nothing left to simulate; mark the stream exhausted so Run
		// terminates immediately.
		c.oracleDone = true
		c.done = true
	}
	c.fastForwarded = done
	return done, nil
}

// Run simulates until the program halts and drains, until maxInsts
// instructions have committed (0 = no limit), or until the safety cycle
// cap trips (which returns an error: it indicates a simulator bug).
func (c *CPU) Run(maxInsts uint64) (Result, error) {
	return c.RunContext(context.Background(), maxInsts)
}

// ctxCheckInterval is how many cycles pass between ctx.Err() polls in
// RunContext. At simulator speed this bounds the cancellation latency
// to well under a millisecond while keeping the check off the per-cycle
// path.
const ctxCheckInterval = 16384

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every ctxCheckInterval cycles and returns ctx.Err() (wrapped) if
// the context is cancelled or times out, so an abandoned request stops
// burning CPU mid-simulation. At the same cadence it publishes the
// committed-instruction count to the SetProgress sink, giving external
// watchdogs a liveness heartbeat.
func (c *CPU) RunContext(ctx context.Context, maxInsts uint64) (Result, error) {
	c.instLimit = maxInsts
	c.stopReq = false
	// Bail before simulating anything on an already-dead context, so a
	// run scheduled after cancellation never reports spurious success.
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("pipeline: run cancelled before start: %w", err)
	}
	// Generous deadlock guard: no real run needs more than ~100 cycles
	// per instruction plus slack.
	capCycles := uint64(10_000_000)
	if maxInsts > 0 {
		capCycles = 200*maxInsts + 1_000_000
	}
	nextCtxCheck := c.cycle + ctxCheckInterval
	for !c.done && !c.permError && !c.stopReq {
		if c.instLimit > 0 && c.committed >= c.instLimit {
			break
		}
		if c.cycle > capCycles {
			return Result{}, fmt.Errorf("pipeline: cycle cap %d exceeded at %d committed insts (deadlock?)", capCycles, c.committed)
		}
		if c.cycle >= nextCtxCheck {
			c.reportProgress()
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("pipeline: run cancelled at cycle %d (%d committed): %w", c.cycle, c.committed, err)
			}
			nextCtxCheck = c.cycle + ctxCheckInterval
		}
		c.step()
		if c.committed != c.lastCommitted {
			c.lastCommitted = c.committed
			c.lastCommitCycle = c.cycle
			c.ffProbeAge = 0 // drought over; any held probe is stale
		} else if c.hangLimit > 0 {
			d := c.cycle - c.lastCommitCycle
			if d >= c.hangLimit {
				// The machine is wedged (an injected fault can do this — a
				// corrupted fetch PC off the text segment ends the oracle
				// stream, and nothing will ever commit again). Terminate
				// cleanly: Hanged is a classifiable outcome, not an error.
				c.hanged = true
				break
			}
			// Hang fast-forward (converge.go): deep in a commit drought,
			// hold a probe snapshot and compare the live state against it
			// every cycle; a match proves the machine loops with period
			// c.cycle - probe.cycle and the run jumps to the watchdog.
			// The probe refreshes at each power-of-two depth so a period-p
			// loop is caught once the probe is ≥ p cycles old.
			if c.hangFF {
				if c.ffProbeAge > 0 && c.tryHangFastForward(c.ffScratch) {
					c.hanged = true
					break
				}
				if d >= hangProbeMin && d&(d-1) == 0 && d != c.ffProbeAge {
					c.probeSnapshot()
					c.ffProbeAge = d
				}
			}
		}
		if c.hookFn != nil && c.hookIdx < len(c.hookMarks) && c.committed >= c.hookMarks[c.hookIdx] {
			for c.hookIdx < len(c.hookMarks) && c.committed >= c.hookMarks[c.hookIdx] {
				c.hookIdx++
			}
			if c.hookFn(c) {
				break
			}
		}
	}
	c.reportProgress()
	return c.result(), nil
}

// SetHangLimit overrides the no-commit watchdog threshold (0 disables
// it). Call before Run.
func (c *CPU) SetHangLimit(cycles uint64) { c.hangLimit = cycles }

// SetCommitWatch installs an observer invoked at every architectural
// retire, in program order, with the global commit index (seq), the
// retire cycle, the committed trace, and the latched result / store
// address / store value the shadow state is rebuilt from. The observer
// must not mutate the CPU; it is the triage pass's lockstep tap. Call
// before Run; nil disables.
func (c *CPU) SetCommitWatch(fn func(seq, cycle uint64, tr emu.Trace, resultP, addrP, storeValueP uint32)) {
	c.commitWatch = fn
}

// SetRecorderWindow freezes the flight recorder postCycles cycles after
// the injector first fires: the ring then holds the window around the
// injection (ring capacity bounds the pre-context, postCycles the
// post-context) instead of the tail of the run. Marker events —
// fault, mismatch, recovery, divergence — bypass the freeze. 0 (the
// default) records the whole run, wrapping as usual.
func (c *CPU) SetRecorderWindow(postCycles uint64) { c.recFreeze = postCycles }

// FaultCycle returns the cycle at which the injector first fired
// (0 = it never fired).
func (c *CPU) FaultCycle() uint64 { return c.faultCycle }

// RequestStop makes the in-flight Run/RunContext return at the end of
// the current cycle with whatever state the machine has, as a normal
// (non-error) result. Observer callbacks use it to end an instrumented
// replay the moment they have what they need — a triage replay whose
// attribution is settled skips the rest of the trial. The request is
// cleared when the next run starts.
func (c *CPU) RequestStop() { c.stopReq = true }

// StopRequested reports whether RequestStop ended the last run early.
func (c *CPU) StopRequested() bool { return c.stopReq }

// SetProgress installs a shared committed-instruction counter: the
// cycle loop adds its commit deltas to p at every context-check
// interval, so a watchdog sampling p can tell a slow simulation from a
// hung one. Several CPUs may share one counter (a figure grid); the sum
// stays monotonic. Call before Run; a nil p disables reporting.
func (c *CPU) SetProgress(p *atomic.Uint64) { c.progress = p }

func (c *CPU) reportProgress() {
	if c.progress != nil && c.committed > c.progressSeen {
		c.progress.Add(c.committed - c.progressSeen)
		c.progressSeen = c.committed
	}
}

// step advances one cycle, running stages in reverse pipeline order so
// every stage sees the previous cycle's state of its upstream neighbour.
// Each stage reports how many of its slots did work; the remainder is
// charged to a single stall cause (chargeStalls), so per-cause counts
// always reconcile against width × cycles.
func (c *CPU) step() {
	c.dispCause = obs.CauseNone
	c.issueNotReady, c.issueNoFU = false, false
	nCommit := c.commit()
	c.writeback()
	rFirst := c.scheme.cycle()
	nIssue := c.issue(rFirst)
	nDisp := c.dispatch(rFirst)
	c.fetch()
	c.chargeStalls(nDisp, nIssue, nCommit)
	c.cycle++
}

// chargeStalls closes the cycle's slot ledger: used slots are banked
// and every unused slot is charged to the one cause its stage
// determined. Pure integer arithmetic — no allocation, always on.
func (c *CPU) chargeStalls(nDisp, nIssue, nCommit int) {
	c.stalls.Use(obs.SlotDispatch, nDisp)
	c.stalls.Use(obs.SlotIssue, nIssue)
	c.stalls.Use(obs.SlotCommit, nCommit)
	if nDisp < c.cfg.Width {
		c.stalls.Charge(obs.SlotDispatch, c.dispatchCause(), c.cfg.Width-nDisp)
	}
	if nIssue < c.cfg.IssueWidth {
		c.stalls.Charge(obs.SlotIssue, c.issueCause(), c.cfg.IssueWidth-nIssue)
	}
	if nCommit < c.cfg.Width {
		c.stalls.Charge(obs.SlotCommit, c.commitBlock, c.cfg.Width-nCommit)
	}
}

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Committed returns the number of architecturally retired instructions.
func (c *CPU) Committed() uint64 { return c.committed }

// Output returns the bytes the program has emitted via "out"
// instructions (architectural state, produced by the oracle).
func (c *CPU) Output() []byte { return c.oracle.Output() }

func (c *CPU) result() Result {
	res := Result{
		Config:        c.cfg.Name,
		Workload:      c.prog.Name,
		Cycles:        c.cycle,
		Committed:     c.committed,
		Halted:        c.done,
		PermError:     c.permError,
		Hanged:        c.hanged,
		HangPeriod:    c.hangPeriod,
		FastForwarded: c.fastForwarded,

		Branches:    c.branches,
		Mispredicts: c.mispredicts,

		FetchICacheStalls: c.fetchICacheStallCycles,
		FetchBranchStalls: c.fetchBranchStallCycles,
		DispatchRUUFull:   c.dispatchRUUFull,
		DispatchLSQFull:   c.dispatchLSQFull,

		ALUUtil:     c.pool.Utilization(fu.IntALU, c.cycle),
		MultUtil:    c.pool.Utilization(fu.IntMult, c.cycle),
		MemPortUtil: c.pool.Utilization(fu.MemPort, c.cycle),

		L1I: c.hier.L1I.Stats(),
		L1D: c.hier.L1D.Stats(),
		L2:  c.hier.L2.Stats(),

		WrongPathFetched:  c.wpFetched,
		WrongPathSquashed: c.wpSquashed,

		FaultsInjected: c.injected,
		FaultsDetected: c.detected,
		FaultsSilent:   c.silent,
		Recoveries:     c.recoveries,
	}
	if c.cycle > 0 {
		res.IPC = float64(c.committed) / float64(c.cycle)
	}
	if c.branches > 0 {
		res.BranchAcc = 1 - float64(c.mispredicts)/float64(c.branches)
	}
	res = c.scheme.report(res, c.cycle)
	if c.detectLat.Count() > 0 {
		res.DetectionLatencyMean = c.detectLat.Mean()
		res.DetectionLatencyMax = c.detectLat.Max()
	}
	res.Stalls = c.stalls.Breakdown(c.cycle, [obs.NumSlotClasses]int{
		obs.SlotDispatch: c.cfg.Width,
		obs.SlotIssue:    c.cfg.IssueWidth,
		obs.SlotCommit:   c.cfg.Width,
	})
	res.Mix = c.mix()
	return res
}

// DetectionLatencies exposes the detection-latency histogram for
// campaign analysis.
func (c *CPU) DetectionLatencies() *stats.Histogram { return c.detectLat }

// CommitDigest summarizes the architectural work the timing machine
// actually committed: shadow register files rebuilt from latched
// writeback values and a running hash of the committed-store sequence.
// Unlike the oracle (which always executes cleanly unless an
// oracle-site fault corrupts it), the shadow state sees latch-plane
// corruption that slipped past detection — comparing this digest
// against an uninjected golden run's is how a campaign finds SDC.
// Output bytes come from the oracle stream (out executes at oracle
// time); for runs that reach halt the two agree.
func (c *CPU) CommitDigest() emu.Digest {
	return emu.Digest{
		Committed:  c.committed,
		Halted:     c.done,
		Regs:       c.shadowRegs,
		FRegs:      c.shadowFRegs,
		OutLen:     uint64(len(c.oracle.Output())),
		OutHash:    emu.HashBytes(c.oracle.Output()),
		StoreCount: c.storeCount,
		StoreHash:  c.storeHash,
	}
}

// OracleDigest summarizes the oracle's own final architectural state.
// Oracle-site faults (regfile, fetch PC) corrupt this plane; latch
// faults never do. Campaigns compare both digests against golden.
func (c *CPU) OracleDigest() emu.Digest { return c.oracle.Digest() }

// InstructionMix is the dynamic mix of committed instructions, as
// fractions of the total.
type InstructionMix struct {
	IntALU  float64
	IntMult float64
	Load    float64
	Store   float64
	Control float64
	FP      float64
}

func (c *CPU) mix() InstructionMix {
	if c.committed == 0 {
		return InstructionMix{}
	}
	tot := float64(c.committed)
	return InstructionMix{
		IntALU:  float64(c.classCommits[0]) / tot,
		IntMult: float64(c.classCommits[1]) / tot,
		Load:    float64(c.classCommits[2]) / tot,
		Store:   float64(c.classCommits[3]) / tot,
		Control: float64(c.classCommits[4]) / tot,
		FP:      float64(c.classCommits[5]) / tot,
	}
}
