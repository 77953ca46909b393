// Command reese-bench is the repository's end-to-end benchmark. It runs
// five workloads that stress different layers of the system, prints
// every end-to-end metric by name and unit, checks that outputs are
// correct, and with -trace 1 makes a traced run that reports per-layer
// metrics and writes a Perfetto-loadable trace.
//
// Run it from the repository root (bench.sh builds it from source):
//
//	bash cmd/reese-bench/bench.sh -workload campaign -seed 3 -seconds 18 -trace 0
//	bash cmd/reese-bench/bench.sh -workload all -seed 1 -out set.jsonl
//	bash cmd/reese-bench/bench.sh -compare -claim figures:ops_per_s parent.jsonl change.jsonl
//
// Every workload runs in child processes of this command. An untraced
// run starts several in turn; each sets up cold and then measures its
// share of the window, so set-up is sampled several times, peak RSS is
// the workload's own, and a slow stretch of a shared host spoils one
// part rather than the whole run. Between the children the command
// times a fixed calibration kernel (calib.go) and scales the end-to-end
// metrics to a reference host speed. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics; earlier lines are for people.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workloadBudget bounds one workload's measurement, child processes
// included, so a single-workload run ends within 180 s even when
// something hangs.
const workloadBudget = 170 * time.Second

// options are the command-line settings shared by parent and children.
type options struct {
	workload string
	seed     uint64
	part     int
	seconds  float64
	trace    bool
	traceOut string
	out      string
	scale    float64
	tmp      string
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		o       options
		traceN  int
		compare bool
		claim   string
		child   string
		phase   string
	)
	flag.StringVar(&o.workload, "workload", "all", "workload to run: a name from BENCHMARK.json, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input (campaign seeds, request sequences)")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window per run, in seconds (0: run_seconds from the spec)")
	flag.IntVar(&traceN, "trace", 0, "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "reese-bench-trace.json"), "where -trace 1 writes its Chrome trace-event JSON")
	flag.StringVar(&o.out, "out", "", "append each workload's full result record (JSON lines) to this file")
	flag.Float64Var(&o.scale, "scale", 1, "multiplier on every workload's per-operation work (tests use 0.01)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: reese-bench -compare parent.jsonl change.jsonl")
	flag.StringVar(&claim, "claim", "", "with -compare, the workload:metric the change claims to improve")
	flag.StringVar(&child, "child", "", "internal: run one workload in this process")
	flag.StringVar(&phase, "phase", "", "internal: child phase (run or trace)")
	flag.IntVar(&o.part, "part", 0, "internal: which part of the window the child measures")
	flag.StringVar(&o.tmp, "tmp", "", "internal: child scratch directory")
	flag.Parse()
	o.trace = traceN == 1

	if child != "" {
		return childMain(child, phase, o)
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(os.Stderr, "reese-bench: -trace takes 0 or 1")
		return 2
	}
	spec, err := LoadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-bench:", err)
		return 1
	}
	if compare {
		return compareMain(spec, flag.Args(), claim)
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintln(os.Stderr, "reese-bench: -seconds and -scale must be positive")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if !spec.hasWorkload(n) || benches[n] == nil {
			fmt.Fprintf(os.Stderr, "reese-bench: unknown workload %q\n", n)
			return 2
		}
	}

	tmp, err := os.MkdirTemp("", "reese-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	stamp := takeStamp()
	fmt.Printf("# %s\n", stamp)
	exit := 0
	for _, name := range names {
		o.workload = name
		rec, err := measure(spec, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reese-bench: %s: %v\n", name, err)
			return 1
		}
		rec.Stamp = stamp
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "reese-bench:", err)
				return 1
			}
		}
		printRecord(spec, rec)
		if !rec.Correct {
			exit = 1
		}
	}
	return exit
}

// measure runs one workload, traced or not, within the time budget.
func measure(spec *Spec, o options) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadBudget)
	defer cancel()
	if o.trace {
		return measureTraced(ctx, spec, o)
	}
	return measureUntraced(ctx, spec, o)
}

// record is one workload's result: what the last output line reports,
// plus the stamp, digests and raw samples -compare and later analysis
// need.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Scale     float64            `json:"scale"`
	Trace     bool               `json:"trace"`
	Stamp     Stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Unscaled  map[string]float64 `json:"unscaled_metrics,omitempty"` // untraced: before host calibration
	Digests   map[string]string  `json:"digests,omitempty"`
	Parts     []partSummary      `json:"parts,omitempty"`
	Ops       []opSample         `json:"ops,omitempty"`
}

// partSummary is what one child process of an untraced run measured
// besides its operations.
type partSummary struct {
	SetupS   float64 `json:"setup_s"`
	WindowS  float64 `json:"window_s"`
	MaxRSSKB int64   `json:"max_rss_kb"`
	// CalibS is the calibration kernel's time around the part: the mean
	// of the measurements just before and just after it.
	CalibS float64 `json:"calib_s"`
}

// parts is how many child processes share an untraced run's window,
// each after its own cold set-up.
const parts = 5

// measureUntraced runs the workload untraced and derives every
// end-to-end metric, scaled to the reference host, and the same
// metrics unscaled.
func measureUntraced(ctx context.Context, spec *Spec, o options) (*record, error) {
	rec := newRecord(o)
	cal := newCalibrator()
	before := cal.measure()
	for k := 0; k < parts; k++ {
		co := o
		co.part = k
		res, err := spawn(ctx, co, "run", o.seconds/parts)
		if err != nil {
			return nil, err
		}
		after := cal.measure()
		rec.absorb(res)
		rec.Parts = append(rec.Parts, partSummary{res.SetupS, res.WindowS, res.MaxRSSKB, (before + after) / 2})
		before = after
	}
	slow, unit := make([]float64, parts), make([]float64, parts)
	for k, p := range rec.Parts {
		slow[k], unit[k] = p.CalibS/calRefS, 1
	}
	rec.Metrics = endToEnd(rec.Parts, rec.Ops, slow)
	rec.Unscaled = endToEnd(rec.Parts, rec.Ops, unit)
	return rec, rec.finish(spec.EndToEnd)
}

// endToEnd derives the end-to-end metrics from an untraced run's parts
// and operations. slow[k] is how many times slower than the reference
// the host ran during part k: the part's rates are multiplied by it and
// its times divided by it. Set-up time is the median over the parts, so
// one slow start does not move it; throughput is the median over the
// parts of each part's completed units per second of its window; the
// latency median pools every operation; peak RSS, which host speed does
// not scale, is the largest of the parts'.
func endToEnd(ps []partSummary, ops []opSample, slow []float64) map[string]float64 {
	var setups, rates []float64
	var rssKB int64
	units := map[int]int{}
	lat := make([]float64, len(ops))
	for i, op := range ops {
		units[op.Part] += op.Units
		lat[i] = op.LatMS / slow[op.Part]
	}
	for k, p := range ps {
		setups = append(setups, p.SetupS/slow[k])
		rates = append(rates, ratio(float64(units[k]), p.WindowS)*slow[k])
		rssKB = max(rssKB, p.MaxRSSKB)
	}
	return map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   median(rates),
		"lat_p50_ms":  percentile(lat, 50),
		"rss_peak_mb": float64(rssKB) / 1024,
	}
}

func latencies(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.LatMS
	}
	return out
}

// probeSeconds is the window of the traced children that run the
// workloads other than the named one: long enough for every layer to
// produce its metrics, short enough that a traced run stays well inside
// the time budget.
const probeSeconds = 2.0

// measureTraced runs every workload traced in its own process — the
// named one for the full window, the others for a short probe, because
// each layer's metrics come from the workload that exercises it — and
// reports every per-layer metric. The named workload's child supplies
// the runtime and tracing-overhead metrics.
func measureTraced(ctx context.Context, spec *Spec, o options) (*record, error) {
	rec := newRecord(o)
	rec.Metrics = map[string]float64{}
	var children []childResult
	order := []string{o.workload}
	for _, w := range spec.Workloads {
		if w.Name != o.workload {
			order = append(order, w.Name)
		}
	}
	var named childResult
	for _, name := range order {
		co := o
		co.workload = name
		seconds := o.seconds
		if name != o.workload {
			seconds = min(o.seconds, probeSeconds)
		}
		res, err := spawn(ctx, co, "trace", seconds)
		if err != nil {
			return nil, err
		}
		children = append(children, res)
		if name == o.workload {
			named = res
			continue
		}
		rec.Problems = append(rec.Problems, res.Problems...)
		if res.Failed > 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%s probe: %d of %d operations failed", name, res.Failed, res.Attempted))
		}
		for k, v := range res.Layers {
			if !strings.HasPrefix(k, "runtime.") && !strings.HasPrefix(k, "bench.") {
				rec.Metrics[k] = v
			}
		}
	}
	rec.absorb(named)
	for k, v := range named.Layers {
		rec.Metrics[k] = v
	}
	if err := writeChromeTrace(o.traceOut, children); err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %s\n", o.traceOut)
	return rec, rec.finish(spec.PerLayer)
}

func newRecord(o options) *record {
	return &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace,
		Digests: map[string]string{}}
}

// absorb adds a measuring child's operations, counts, digests and
// problems.
func (r *record) absorb(res childResult) {
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	r.Problems = append(r.Problems, res.Problems...)
	r.Ops = append(r.Ops, res.Ops...)
	for k, v := range res.Digests {
		r.Digests[k] = v
	}
}

// finish checks that exactly the spec's metrics were produced and sets
// the verdict. A missing metric is a bug in the benchmark, not a
// property of the code under test, so it is an error.
func (r *record) finish(want []Metric) error {
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	if len(r.Metrics) != len(want) {
		var extra []string
		for k := range r.Metrics {
			if !containsMetric(want, k) {
				extra = append(extra, k)
			}
		}
		return fmt.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return nil
}

func containsMetric(ms []Metric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// printRecord writes the human-readable lines and then the one-line
// JSON result.
func printRecord(spec *Spec, r *record) {
	group := spec.EndToEnd
	if r.Trace {
		group = spec.PerLayer
	}
	fmt.Printf("# workload %s, seed %d, %gs window: %d attempted, %d failed, %d latency samples",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, len(r.Ops))
	// The tail is printed, not reported as a metric: over one window it
	// spreads from run to run more than any regression bound allows.
	if p, ok := tailPercentile(len(r.Ops)); ok {
		fmt.Printf("; unscaled latency p%g %.4g ms", p, percentile(latencies(r.Ops), p))
	}
	fmt.Println()
	if r.Unscaled != nil {
		var cal []float64
		for _, p := range r.Parts {
			cal = append(cal, p.CalibS)
		}
		fmt.Printf("# host calibration kernel %.2f ms (median over parts); metrics are scaled to a host where it takes %g ms\n",
			median(cal)*1e3, calRefS*1e3)
	}
	for _, p := range r.Problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range group {
		v := r.Metrics[m.Name]
		metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("%-40s %14.6g %s", m.Name, v, m.Unit)
		if u, ok := r.Unscaled[m.Name]; ok {
			fmt.Printf("   (unscaled %.6g)", u)
		}
		fmt.Println()
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Println(string(line))
}

func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
