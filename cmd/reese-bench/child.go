package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"reese/internal/obs"
)

// childResult is what one workload process reports to the parent.
type childResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	WindowS   float64            `json:"window_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Ops       []opSample         `json:"ops,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Lanes     []*obs.Span        `json:"lanes,omitempty"`
	MaxRSSKB  int64              `json:"max_rss_kb"` // filled in by the parent
}

// opSample is one completed operation: a sweep, a campaign call, a
// request. Kind (the program and machine, or the request kind) is kept
// in -out records for breakdowns the metrics do not make.
type opSample struct {
	Part  int     `json:"part"`
	Kind  string  `json:"kind"`
	LatMS float64 `json:"lat_ms"`
	Units int     `json:"units"` // trials, requests or sweeps it completed
}

// spawn runs one child process of this command for o.workload and
// returns its result, with its peak resident set size.
func spawn(ctx context.Context, o options, phase string, seconds float64) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(o.tmp, o.workload+"-"+phase+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(ctx, exe,
		"-child", o.workload, "-phase", phase,
		"-part", strconv.Itoa(o.part),
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-tmp", dir)
	// A child outliving a killed parent would keep loading the machine.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s %s child: %w", o.workload, phase, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s %s child: decode result: %w", o.workload, phase, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSKB = ru.Maxrss // KiB on Linux
	}
	return res, nil
}

// childMain runs one workload phase in this process and writes the
// result as JSON to standard output.
func childMain(name, phase string, o options) int {
	b := benches[name]
	if b == nil {
		fmt.Fprintf(os.Stderr, "reese-bench child: unknown workload %q\n", name)
		return 2
	}
	r := newRun(name, o)
	if phase == "trace" {
		r.tr = &tracer{}
	}
	res, err := r.execute(b())
	if err != nil {
		fmt.Fprintf(os.Stderr, "reese-bench child %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "reese-bench child %s: %v\n", name, err)
		return 1
	}
	return 0
}

// bench is one workload: a cold set-up, a measured window of
// operations, and the checks (and, when traced, layer metrics) that
// follow it.
type bench interface {
	setup(r *run) error
	measure(r *run, until time.Time)
	check(r *run)
	close()
}

// benches maps each workload name to its constructor.
var benches = map[string]func() bench{
	"figures":  func() bench { return &figuresBench{} },
	"campaign": func() bench { return newCampaignBench(false) },
	"triage":   func() bench { return newCampaignBench(true) },
	"serve":    func() bench { return &serveBench{} },
	"cluster":  func() bench { return &clusterBench{} },
}

// run is one workload execution inside one process. Workloads report
// operations, failed checks and layer metrics through it; it is safe
// for concurrent use.
type run struct {
	name    string
	seed    uint64
	part    int
	seconds float64
	scale   float64
	tmp     string
	tr      *tracer // nil: untraced

	mu  sync.Mutex
	res childResult
}

func newRun(name string, o options) *run {
	return &run{
		name: name, seed: o.seed, part: o.part, seconds: o.seconds, scale: o.scale, tmp: o.tmp,
		res: childResult{Workload: name, Layers: map[string]float64{}, Digests: map[string]string{}},
	}
}

func (r *run) traced() bool { return r.tr != nil }

// inputSeed derives the seed of operation i's input from the run's seed
// and this process's part of the window, so every operation of a run
// gets its own input and equal seeds give equal inputs.
func (r *run) inputSeed(i int) uint64 {
	return mix(r.seed, uint64(r.part)<<32|uint64(i))
}

// mix derives an independent 64-bit value from a seed and an index
// (splitmix64), never 0.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// op records one completed operation of kind that finished n units
// (trials, requests, sweeps) in lat; failed counts how many of the
// units failed.
func (r *run) op(kind string, lat time.Duration, n, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted += n
	r.res.Failed += failed
	r.res.Ops = append(r.res.Ops, opSample{
		Part: r.part, Kind: kind, LatMS: float64(lat.Nanoseconds()) / 1e6, Units: n - failed,
	})
}

// problem records a failed output check.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(r.name+": "+format, args...))
	}
}

// layer records a per-layer metric (traced runs only).
func (r *run) layer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Layers[name] = v
}

// maxDigests caps the per-operation output digests one process reports.
const maxDigests = 256

// digest records the output digest of the operation named key (unique
// within the process); -compare checks that operations with the same
// seed, part and key have the same digest on both sides.
func (r *run) digest(key string, sum []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.Digests) < maxDigests {
		r.res.Digests[fmt.Sprintf("%d/%s", r.part, key)] = hex.EncodeToString(sum[:8])
	}
}

// scaled multiplies a work size by the run's scale, with a floor that
// keeps the smallest smoke run meaningful.
func (r *run) scaled(n, floor int) int {
	return max(int(float64(n)*r.scale), floor)
}

// execute performs set-up (timed as setup_s), the measured window, and
// the checks after it.
func (r *run) execute(b bench) (childResult, error) {
	defer b.close()
	t0 := time.Now()
	if err := b.setup(r); err != nil {
		return r.res, fmt.Errorf("set-up: %w", err)
	}
	r.res.SetupS = time.Since(t0).Seconds()
	rt0 := readRuntime()
	opened := time.Now()
	b.measure(r, opened.Add(time.Duration(r.seconds*float64(time.Second))))
	r.res.WindowS = time.Since(opened).Seconds()
	rt1 := readRuntime()
	b.check(r)
	if r.traced() {
		r.layer("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
		r.layer("runtime.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20))
		r.layer("bench.trace_overhead_frac", r.tr.overhead(r.res.WindowS))
		r.res.Lanes = r.tr.roots()
	}
	return r.res, nil
}

// runtimeSample is a reading of the Go runtime's own accounting.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
	}
}

// cpuSeconds is the CPU time this process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuUtil is the share of the available cores a stretch of wall time
// kept busy, from CPU-seconds used during it.
func cpuUtil(cpu, wall float64) float64 {
	return ratio(cpu, wall*float64(runtime.GOMAXPROCS(0)))
}

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procWriteBytes reads this process's storage write count from
// /proc/self/io (0 where unavailable).
func procWriteBytes() float64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("write_bytes: ")); ok {
			n, _ := strconv.ParseFloat(string(v), 64)
			return n
		}
	}
	return 0
}

// mkdir creates a scratch subdirectory of the run's temp dir.
func (r *run) mkdir(name string) (string, error) {
	dir := filepath.Join(r.tmp, name)
	return dir, os.MkdirAll(dir, 0o755)
}
