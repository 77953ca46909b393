// Command reese-load is the open-loop load driver for real reese-serve
// deployments: it drives worker replicas and, optionally, a cluster
// coordinator with N concurrent clients at a stepped target RPS, and
// reports the latency distribution and saturation curve each step
// produces. The last line of standard output is the per-step results as
// one JSON array. (The repository's benchmark is reese-bench; this
// command measures a deployment's capacity, not the code's speed.)
//
// Usage:
//
//	reese-load -target http://a:8321,http://b:8321 -rps 5,10,20 -step 10s
//	reese-load -target http://coord:8320 -kind cluster -rps 1,2  # drive a coordinator
//	reese-load -target http://a:8321 -chaos-seed 7               # seeded network faults on the clients
//	reese-load -self 2                                           # in-process topology, default steps
//
// Each request is unique (the seed varies per request), so latencies
// measure real simulation work, not result-cache hits. A 503 counts as
// shed load — the saturation signal — not as an error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reese/internal/chaos"
	"reese/internal/cluster"
	"reese/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// stepResult is one RPS step's measurements.
type stepResult struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed_503"`
	Errors      int     `json:"errors"`
	ClientFull  int     `json:"client_limited"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("reese-load", flag.ContinueOnError)
	var (
		targets    = fs.String("target", "", "comma-separated base URLs to drive (empty: requires -self)")
		selfN      = fs.Int("self", 0, "start this many in-process worker replicas (plus a coordinator for -kind cluster)")
		kind       = fs.String("kind", "faults", "request kind per client op: run | faults | cluster")
		rpsList    = fs.String("rps", "2,5,10,20", "comma-separated target RPS steps")
		stepDur    = fs.Duration("step", 5*time.Second, "duration of each RPS step")
		clients    = fs.Int("clients", 16, "max in-flight requests (the concurrent client pool)")
		workload   = fs.String("workload", "li", "workload each request simulates")
		insts      = fs.Uint64("insts", 5_000, "instruction budget per -kind run request")
		injections = fs.Int("n", 20, "injections per -kind faults/cluster request")
		chaosSeed  = fs.Int64("chaos-seed", 0, "seed the chaos transport on the load clients (0 disables); with -chaos-* probabilities it injects seeded network faults")
		chaosDrop  = fs.Float64("chaos-drop", 0.05, "per-request drop probability under -chaos-seed")
		chaos5xx   = fs.Float64("chaos-5xx", 0.05, "per-request synthesized-503 probability under -chaos-seed")
		chaosFlip  = fs.Float64("chaos-corrupt", 0.02, "per-response bit-flip probability under -chaos-seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *kind {
	case "run", "faults", "cluster":
	default:
		fmt.Fprintf(os.Stderr, "reese-load: -kind %q: want run, faults or cluster\n", *kind)
		return 2
	}

	urls := splitList(*targets)
	var coordinatorURL string
	if *selfN > 0 {
		workers, coord, cleanup, err := selfTopology(*selfN, *kind == "cluster")
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-load:", err)
			return 1
		}
		defer cleanup()
		urls = append(urls, workers...)
		coordinatorURL = coord
	}
	if *kind == "cluster" {
		if coordinatorURL == "" && len(urls) > 0 {
			// Driving an external coordinator: the target IS the coordinator.
			coordinatorURL = urls[0]
		}
		if coordinatorURL == "" {
			fmt.Fprintln(os.Stderr, "reese-load: -kind cluster needs -self or a coordinator -target")
			return 1
		}
	} else if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "reese-load: nothing to drive; set -target or -self")
		return 1
	}

	steps, err := parseRPS(*rpsList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-load:", err)
		return 1
	}

	client := &http.Client{Timeout: 120 * time.Second}
	var chaosTr *chaos.Transport
	if *chaosSeed != 0 {
		// Chaos mode: the load clients see seeded drops, 503 bursts, and
		// corrupted bodies, proving the service degrades instead of lying.
		chaosTr = chaos.NewTransport(chaos.TransportConfig{
			Seed:        *chaosSeed,
			DropProb:    *chaosDrop,
			Err5xxProb:  *chaos5xx,
			CorruptProb: *chaosFlip,
		})
		client.Transport = chaosTr
		fmt.Printf("chaos transport on: seed %d, drop %.2f, 5xx %.2f, corrupt %.2f\n",
			*chaosSeed, *chaosDrop, *chaos5xx, *chaosFlip)
	}
	gen := &generator{
		urls:        urls,
		coordinator: coordinatorURL,
		kind:        *kind,
		workload:    *workload,
		insts:       *insts,
		injections:  *injections,
		clients:     *clients,
		client:      client,
	}
	var results []stepResult
	for _, rps := range steps {
		res := gen.step(rps, *stepDur)
		results = append(results, res)
		fmt.Printf("rps=%g: sent %d, ok %d, shed %d, errors %d, client-limited %d | achieved %.1f rps, p50 %.1fms p99 %.1fms max %.1fms\n",
			res.TargetRPS, res.Sent, res.OK, res.Shed, res.Errors, res.ClientFull,
			res.AchievedRPS, res.P50MS, res.P99MS, res.MaxMS)
	}
	if chaosTr != nil {
		fmt.Printf("chaos injected %d faults: %d drops, %d 503s, %d corrupted bodies\n",
			chaosTr.Injected(), chaosTr.Drops(), chaosTr.Err5xx(), chaosTr.Corrupted())
	}
	if err := json.NewEncoder(os.Stdout).Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "reese-load:", err)
		return 1
	}
	for _, r := range results {
		if r.OK == 0 {
			fmt.Fprintln(os.Stderr, "reese-load: a step completed zero requests")
			return 1
		}
	}
	return 0
}

// generator issues paced requests against the topology.
type generator struct {
	urls        []string
	coordinator string
	kind        string
	workload    string
	insts       uint64
	injections  int
	clients     int
	client      *http.Client
	seq         atomic.Uint64
}

// step drives one target RPS for the given duration and collects the
// latency distribution. Pacing is a ticker at the request period; the
// client pool bounds concurrency, and a tick with every client busy is
// recorded as client-limited rather than silently skipped.
func (g *generator) step(rps float64, d time.Duration) stepResult {
	res := stepResult{TargetRPS: rps}
	period := time.Duration(float64(time.Second) / rps)
	slots := make(chan struct{}, g.clients)
	for i := 0; i < g.clients; i++ {
		slots <- struct{}{}
	}
	var (
		mu        sync.Mutex
		latencies []float64
		wg        sync.WaitGroup
	)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	deadline := time.After(d)
	start := time.Now()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			select {
			case <-slots:
			default:
				res.ClientFull++
				continue
			}
			res.Sent++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { slots <- struct{}{} }()
				t0 := time.Now()
				outcome := g.one()
				ms := float64(time.Since(t0).Microseconds()) / 1e3
				mu.Lock()
				defer mu.Unlock()
				switch outcome {
				case "ok":
					latencies = append(latencies, ms)
				case "shed":
					res.Shed++
				default:
					res.Errors++
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res.OK = len(latencies)
	if elapsed > 0 {
		res.AchievedRPS = float64(res.OK) / elapsed
	}
	sort.Float64s(latencies)
	res.P50MS = percentile(latencies, 50)
	res.P99MS = percentile(latencies, 99)
	if n := len(latencies); n > 0 {
		res.MaxMS = latencies[n-1]
	}
	return res
}

// one issues a single request and classifies it: ok, shed (503), or
// error. Every request body is unique (see body), so the server's result
// cache cannot answer it — the point is to load the simulator, not the
// cache.
func (g *generator) one() string {
	seq := g.seq.Add(1)
	body := g.body(seq)
	switch g.kind {
	case "run":
		return g.post(g.pick(seq)+"/v1/run?wait=60s", body)
	case "cluster":
		return g.stream(g.coordinator+"/v1/cluster/faults", body)
	default: // faults; run validates -kind
		return g.post(g.pick(seq)+"/v1/faults?wait=60s", body)
	}
}

// body is request seq's JSON: run requests get the instruction budget
// insts+seq, campaign requests the seed seq, so no two requests share a
// cache key.
func (g *generator) body(seq uint64) string {
	if g.kind == "run" {
		return fmt.Sprintf(`{"workload":%q,"insts":%d}`, g.workload, g.insts+seq)
	}
	return fmt.Sprintf(`{"workload":%q,"injections":%d,"seed":%d}`, g.workload, g.injections, seq)
}

func (g *generator) pick(seq uint64) string {
	return g.urls[int(seq)%len(g.urls)]
}

// post submits and waits for a terminal job state.
func (g *generator) post(url, body string) string {
	resp, err := g.client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<20))
	switch resp.StatusCode {
	case http.StatusOK:
		return "ok"
	case http.StatusServiceUnavailable:
		return "shed"
	case http.StatusAccepted:
		// The wait expired with the job still running — the queue is
		// saturated beyond the wait budget; count it as shed, not error.
		return "shed"
	default:
		return "error"
	}
}

// stream drives the coordinator's streaming endpoint to its final
// frame.
func (g *generator) stream(url, body string) string {
	resp, err := g.client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return "error"
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var final struct {
		Type string `json:"type"`
	}
	if len(lines) == 0 || json.Unmarshal(lines[len(lines)-1], &final) != nil || final.Type != "result" {
		return "error"
	}
	return "ok"
}

// selfTopology starts in-process worker replicas (and a coordinator
// when asked), so the generator can run hermetically in CI.
func selfTopology(n int, withCoordinator bool) (workers []string, coordinator string, cleanup func(), err error) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	var servers []*server.Server
	var httpServers []*httptest.Server
	for i := 0; i < n; i++ {
		s, serr := server.New(server.Config{Workers: 1, Logger: log})
		if serr != nil {
			err = serr
			return
		}
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, s)
		httpServers = append(httpServers, ts)
		workers = append(workers, ts.URL)
	}
	if withCoordinator {
		coord := cluster.Handler(cluster.Config{Workers: workers, Logger: log})
		ts := httptest.NewServer(coord)
		httpServers = append(httpServers, ts)
		coordinator = ts.URL
	}
	cleanup = func() {
		for _, ts := range httpServers {
			ts.Close()
		}
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = s.Shutdown(ctx)
			cancel()
		}
	}
	return
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, strings.TrimRight(v, "/"))
		}
	}
	return out
}

func parseRPS(s string) ([]float64, error) {
	var out []float64
	for _, v := range splitList(s) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad rps step %q", v)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rps steps in %q", s)
	}
	return out, nil
}

// percentile returns the p-th percentile of sorted xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p/100*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
