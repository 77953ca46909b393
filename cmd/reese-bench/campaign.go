package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/workload"
)

// Sizes of the two campaign workloads, per operation (one
// harness.Campaign call).
const (
	campaignTrials = 150     // campaign: many short trials per call
	triageTrials   = 40      // triage: few long trials per call
	triageTarget   = 100_000 // triage: golden-run length in committed insts
)

// campaignBench runs fault-injection campaigns in process. Without
// triage it cycles the six programs on both machines with the default
// short golden runs, so per-trial engine cost dominates (fork/restore,
// splice checks, hang fast-forward, the worker pool). With triage it
// runs three programs with long golden runs and replays every escape,
// so suffix simulation, memory diff, triage replay and the trace writer
// dominate instead.
type campaignBench struct {
	triage   bool
	pairs    []campaignPair
	target   uint64
	trials   int
	traceDir string

	// Triage tallies, filled by the TriageObserver and the trial sink.
	mu         sync.Mutex
	replayMS   map[string][]float64
	traceBytes float64
	writeS     float64
	written    int
}

type campaignPair struct {
	program string
	machine config.Machine
}

// trialSample is one trial's host time, from TrialSink inter-arrival.
type trialSample struct {
	outcome string
	ms      float64
}

func newCampaignBench(triage bool) bench {
	return &campaignBench{triage: triage, replayMS: map[string][]float64{}}
}

func (b *campaignBench) setup(r *run) error {
	programs := workload.Names()
	b.trials = r.scaled(campaignTrials, 4)
	if b.triage {
		programs = []string{"gcc", "ijpeg", "vortex"}
		b.target = uint64(r.scaled(triageTarget, 8_000))
		b.trials = r.scaled(triageTrials, 4)
		dir, err := r.mkdir("traces")
		if err != nil {
			return err
		}
		b.traceDir = dir
	}
	for _, p := range programs {
		for _, m := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
			b.pairs = append(b.pairs, campaignPair{p, m})
		}
	}
	// A one-trial campaign per pair builds its golden scan and
	// checkpoints, the cold cost every later campaign reuses.
	start := time.Now()
	for i := range b.pairs {
		spec := b.spec(r, i)
		spec.Injections, spec.Seed = 1, r.seed
		end := r.tr.begin("setup", "harness.Campaign "+b.pairs[i].program+" "+b.pairs[i].machine.Name)
		_, err := harness.Campaign(spec, harness.Options{})
		end("")
		if err != nil {
			return err
		}
	}
	if r.traced() && !b.triage {
		r.layer("campaign.bundle_s", time.Since(start).Seconds()/float64(len(b.pairs)))
	}
	return nil
}

// spec is operation i's campaign: the pairs in rotation, each call with
// a fresh seed. Each part of the window starts the rotation at its own
// offset, so the parts together cover the pairs about evenly.
func (b *campaignBench) spec(r *run, i int) harness.CampaignSpec {
	p := b.pairs[(i+r.part*len(b.pairs)/parts)%len(b.pairs)]
	return harness.CampaignSpec{
		Workload:    p.program,
		Machine:     p.machine,
		Injections:  b.trials,
		Seed:        r.inputSeed(i),
		TargetInsts: b.target,
		Triage:      b.triage,
	}
}

func (b *campaignBench) measure(r *run, until time.Time) {
	if !r.traced() || b.triage {
		b.loop(r, until, 0, 1, harness.Options{}, "main", nil)
		return
	}
	// Traced campaign: the first half runs as untraced does, for pool
	// utilisation, allocation and encode cost; the second half runs two
	// campaigns at a time with Parallel=1, so each campaign's TrialSink
	// inter-arrival time is one trial's host time.
	half := time.Now().Add(time.Until(until) / 2)
	cpu0, rt0, t0 := cpuSeconds(), readRuntime(), time.Now()
	encS, trials := b.loop(r, half, 0, 1, harness.Options{}, "main", nil)
	r.layer("campaign.pool_util", cpuUtil(cpuSeconds()-cpu0, time.Since(t0).Seconds()))
	r.layer("campaign.alloc_kb_per_trial", ratio(float64(readRuntime().allocBytes-rt0.allocBytes)/1024, float64(trials)))
	r.layer("campaign.encode_us_per_trial", ratio(encS*1e6, float64(trials)))

	var wg sync.WaitGroup
	samples := make([][]trialSample, 2)
	for g := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lane g takes operations 1000+g, 1002+g, ...: fresh seeds.
			b.loop(r, until, 1000+g, 2, harness.Options{Parallel: 1}, fmt.Sprintf("parallel=1 #%d", g+1), &samples[g])
		}()
	}
	wg.Wait()
	var all []float64
	byOutcome := map[string][]float64{}
	var total float64
	for _, s := range samples {
		for _, t := range s {
			all = append(all, t.ms)
			byOutcome[t.outcome] = append(byOutcome[t.outcome], t.ms)
			total += t.ms
		}
	}
	r.layer("campaign.trial_ms.p50", percentile(all, 50))
	r.layer("campaign.trial_ms.p90", percentile(all, 90))
	// Neither machine produces "detected" (REESE recovers whatever it
	// detects) or "corrected" (no ECC), so those have no trial times.
	for _, o := range []string{"masked", "recovered", "sdc", "hang"} {
		r.layer("campaign.trial_ms."+o, mean(byOutcome[o]))
	}
	r.layer("campaign.sdc_time_share", ratio(sum(byOutcome["sdc"]), total))
	r.layer("campaign.hang_time_share", ratio(sum(byOutcome["hang"]), total))
}

// loop runs operations first, first+step, ... until the deadline (at
// least one) and returns the JSONL encode time and trials completed.
func (b *campaignBench) loop(r *run, until time.Time, first, step int, opt harness.Options, lane string, samples *[]trialSample) (encS float64, trials int) {
	for i := first; i == first || time.Now().Before(until); i += step {
		e, n := b.runOp(r, i, opt, lane, samples)
		encS += e
		trials += n
	}
	return encS, trials
}

// runOp runs one campaign with every trial streamed through a TrialSink
// as JSONL into a hash, checks it, and records it.
func (b *campaignBench) runOp(r *run, i int, opt harness.Options, lane string, samples *[]trialSample) (encS float64, trials int) {
	spec := b.spec(r, i)
	h := sha256.New()
	enc := json.NewEncoder(h)
	sunk := 0
	last := time.Now()
	spec.TrialSink = func(t harness.Trial) error {
		if samples != nil {
			now := time.Now()
			*samples = append(*samples, trialSample{t.Outcome, float64(now.Sub(last).Nanoseconds()) / 1e6})
			last = now
		}
		if t.Index != sunk {
			r.problem("%s seed %d: trial %d arrived as record %d", spec.Workload, spec.Seed, t.Index, sunk)
		}
		sunk++
		if b.triage {
			if err := b.sinkTriage(r, spec, &t); err != nil {
				return err
			}
		}
		t0 := time.Now()
		err := enc.Encode(&t)
		encS += time.Since(t0).Seconds()
		return err
	}
	if b.triage && r.traced() {
		spec.TriageObserver = b.observe
	}
	kind := spec.Workload + " " + spec.Machine.Name
	end := r.tr.begin(lane, "harness.Campaign "+kind)
	t0 := time.Now()
	rep, err := harness.Campaign(spec, opt)
	lat := time.Since(t0)
	if err != nil {
		end("error")
		r.op(kind, lat, spec.Injections, spec.Injections)
		r.problem("campaign %s seed %d: %v", spec.Workload, spec.Seed, err)
		return encS, 0
	}
	end("")
	bad := 0
	if rep.Injected != uint64(spec.Injections) || rep.Total() != rep.Injected || sunk != spec.Injections {
		r.problem("%s seed %d: %d injections, outcomes sum to %d, %d records streamed",
			spec.Workload, spec.Seed, rep.Injected, rep.Total(), sunk)
		bad = spec.Injections
	}
	var perStruct uint64
	for _, s := range rep.Structures {
		perStruct += s.Injected
	}
	if perStruct != rep.Injected {
		r.problem("%s seed %d: per-structure injections sum to %d of %d", spec.Workload, spec.Seed, perStruct, rep.Injected)
		bad = spec.Injections
	}
	r.op(kind, lat, spec.Injections, bad)
	r.digest(strconv.Itoa(i), h.Sum(nil))
	return encS, spec.Injections
}

// sinkTriage checks an escape's triage attachment, writes its trace the
// way reese-faults -triage-dir does, and strips the triage fields so the
// digest covers the untriaged record.
func (b *campaignBench) sinkTriage(r *run, spec harness.CampaignSpec, t *harness.Trial) error {
	escape := t.Outcome == "sdc" || t.Outcome == "hang"
	if t.Triage == nil {
		if escape {
			r.problem("%s seed %d trial %d: %s without triage", spec.Workload, spec.Seed, t.Index, t.Outcome)
		}
		return nil
	}
	if escape && (!t.Triage.ReplayOK || len(t.Triage.Trace) == 0) {
		r.problem("%s seed %d trial %d: replay_ok=%v, %d-byte trace", spec.Workload, spec.Seed, t.Index, t.Triage.ReplayOK, len(t.Triage.Trace))
	}
	path := filepath.Join(b.traceDir, fmt.Sprintf("%s-%d-trial-%04d.trace.json", spec.Machine.Name, spec.Seed, t.Index))
	t0 := time.Now()
	err := os.WriteFile(path, t.Triage.Trace, 0o644)
	b.mu.Lock()
	b.writeS += time.Since(t0).Seconds()
	b.traceBytes += float64(len(t.Triage.Trace))
	b.written++
	b.mu.Unlock()
	if err != nil {
		return err
	}
	t.Triage.TracePath = path
	t.Triage.Trace = nil
	t.Triage = nil
	return nil
}

// observe is the TriageObserver: one call per completed replay.
func (b *campaignBench) observe(outcome string, seconds float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.replayMS[outcome] = append(b.replayMS[outcome], seconds*1e3)
}

func (b *campaignBench) check(r *run) {
	if !b.triage || !r.traced() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var all []float64
	for _, v := range b.replayMS {
		all = append(all, v...)
	}
	r.layer("triage.replay_ms.p50", percentile(all, 50))
	r.layer("triage.replay_ms.p90", percentile(all, 90))
	r.layer("triage.replay_ms.sdc", mean(b.replayMS["sdc"]))
	r.layer("triage.replay_ms.hang", mean(b.replayMS["hang"]))
	// Replays run on the campaign's worker pool: their share of the
	// pool's capacity over the window.
	r.layer("triage.time_share", cpuUtil(sum(all)/1e3, r.res.WindowS))
	r.layer("triage.trace_kb_per_trial", ratio(b.traceBytes/1024, float64(b.written)))
	r.layer("triage.trace_write_ms_per_trial", ratio(b.writeS*1e3, float64(b.written)))
}

func (b *campaignBench) close() {}
