package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"reese/internal/cluster"
	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/obs"
	"reese/internal/server"
)

// clusterInjections is the size of each cluster campaign: big enough to
// split into the coordinator's automatic shards, small enough for about
// ten campaigns per window.
const clusterInjections = 500

// clusterBench runs sequential gcc campaigns on the REESE machine
// through a coordinator (cluster.Handler with a WAL, mounted on a
// reese-serve replica as -cluster-workers does) and two worker replicas
// over loopback HTTP. The trials are the campaign workload's kind; what
// this adds is HTTP, payload hashing, WAL fsync and the merge.
type clusterBench struct {
	workers []*replica
	coord   *replica
	client  *http.Client
	machine config.Machine
	rt      *timedTransport

	// Traced-run observations.
	first      cluster.Campaign
	firstWall  float64
	firstRep   []byte
	shardS     []float64
	mergeTailS []float64
	campaigns  int
	writes     float64
	scraped0   map[string]float64
}

func (b *clusterBench) setup(r *run) error {
	b.machine = config.Starting().WithReese()
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := startReplica(filepath.Join(r.tmp, fmt.Sprintf("worker%d.journal", i+1)), nil)
		if err != nil {
			return err
		}
		b.workers = append(b.workers, w)
		urls = append(urls, w.url())
	}
	b.rt = &timedTransport{base: http.DefaultTransport, ms: map[string][]float64{}, tr: r.tr}
	coord, err := startReplica("", func(s *server.Server) {
		s.Mount("POST /v1/cluster/faults", cluster.Handler(cluster.Config{
			Workers: urls,
			Client:  &http.Client{Timeout: 30 * time.Second, Transport: b.rt},
			Metrics: s.ShardMetrics(),
			WALDir:  filepath.Join(r.tmp, "wal"),
			Logger:  quiet,
		}))
	})
	if err != nil {
		return err
	}
	b.coord = coord
	b.client = newClient()
	// Warm-up: one small campaign builds the golden run the workers
	// share (one process, one memo) and opens every connection.
	_, _, err = b.campaign(r, cluster.Campaign{Workload: "gcc", Machine: &b.machine, Injections: 8, Seed: r.seed}, "setup")
	return err
}

func (b *clusterBench) measure(r *run, until time.Time) {
	w0 := procWriteBytes()
	b.scraped0 = b.scrapeAll(r)
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		req := cluster.Campaign{Workload: "gcc", Machine: &b.machine, Injections: r.scaled(clusterInjections, 8), Seed: r.inputSeed(i)}
		t0 := time.Now()
		rep, report, err := b.campaign(r, req, "client")
		lat := time.Since(t0)
		failed := 0
		if err == nil {
			err = checkReport(rep, req.Injections)
		}
		if err != nil {
			failed = req.Injections
			r.problem("cluster campaign seed %d: %v", req.Seed, err)
		}
		r.op("campaign", lat, req.Injections, failed)
		if failed == 0 {
			sum := sha256.Sum256(report)
			r.digest(strconv.Itoa(i), sum[:])
		}
		if i == 0 {
			b.first, b.firstWall, b.firstRep = req, lat.Seconds(), report
		}
		b.campaigns++
	}
	b.writes = procWriteBytes() - w0
}

// checkReport checks a merged report's accounting.
func checkReport(rep *harness.CampaignReport, injections int) error {
	if rep.Injected != uint64(injections) || rep.Total() != rep.Injected {
		return fmt.Errorf("%d injected of %d, outcomes sum to %d", rep.Injected, injections, rep.Total())
	}
	return nil
}

// streamFrame is either a progress event or the final result frame.
type streamFrame struct {
	cluster.Event
	Report json.RawMessage `json:"report"`
}

// campaign submits one cluster campaign, reads the chunked-JSONL stream
// to its result frame, and returns the report with its canonical bytes.
// Shard timings come from the events' own clock (elapsed_s since the
// coordinator started the campaign), not from when a frame happened to
// reach the client.
func (b *clusterBench) campaign(r *run, req cluster.Campaign, lane string) (*harness.CampaignReport, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	end := r.tr.begin(lane, fmt.Sprintf("POST /v1/cluster/faults seed %d", req.Seed))
	t0 := time.Now()
	at := func(elapsedS float64) time.Time { return t0.Add(time.Duration(elapsedS * float64(time.Second))) }
	resp, err := b.client.Post(b.coord.url()+"/v1/cluster/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		end("error")
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		end(resp.Status)
		return nil, nil, fmt.Errorf("status %s", resp.Status)
	}
	var last streamFrame
	lastCompletedS := -1.0
	assignedS := map[int]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var f streamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			end("error")
			return nil, nil, fmt.Errorf("stream frame: %w", err)
		}
		last = f
		switch f.Type {
		case "assigned":
			assignedS[f.Shard] = f.ElapsedS
		case "completed":
			lastCompletedS = f.ElapsedS
			if a, ok := assignedS[f.Shard]; ok && lane == "client" {
				b.shardS = append(b.shardS, f.ElapsedS-a)
				done := at(f.ElapsedS)
				r.tr.add("shards "+b.workerName(f.Worker), &obs.Span{
					Name: fmt.Sprintf("shard %d", f.Shard), Start: at(a), End: &done,
				})
			}
		}
	}
	if err := sc.Err(); err != nil {
		end("error")
		return nil, nil, err
	}
	if last.Type != "result" {
		end("error")
		return nil, nil, fmt.Errorf("stream ended with %q frame: %s", last.Type, last.Err)
	}
	end("")
	if lane == "client" && lastCompletedS >= 0 {
		b.mergeTailS = append(b.mergeTailS, time.Since(at(lastCompletedS)).Seconds())
	}
	var rep harness.CampaignReport
	if err := json.Unmarshal(last.Report, &rep); err != nil {
		return nil, nil, err
	}
	report, err := canonical(last.Report)
	return &rep, report, err
}

func (b *clusterBench) workerName(url string) string {
	for i, w := range b.workers {
		if w.url() == url {
			return fmt.Sprintf("worker %d", i+1)
		}
	}
	return url
}

// scrapeAll reads the counters the traced run reports: shard churn from
// the coordinator, queue wait and attempt time from the workers.
func (b *clusterBench) scrapeAll(r *run) map[string]float64 {
	out := map[string]float64{}
	if !r.traced() {
		return out
	}
	get := func(url string, names ...string) {
		m, err := scrape(b.client, url, names...)
		if err != nil {
			r.problem("scrape: %v", err)
		}
		for k, v := range m {
			out[k] += v
		}
	}
	get(b.coord.url(), "reese_serve_shards_retried_total", "reese_serve_shards_reassigned_total", "reese_serve_shards_corrupted_total")
	for _, w := range b.workers {
		get(w.url(), "reese_serve_job_queue_wait_seconds_sum", "reese_serve_job_queue_wait_seconds_count",
			"reese_serve_job_attempt_seconds_sum", "reese_serve_job_attempt_seconds_count")
	}
	return out
}

func (b *clusterBench) check(r *run) {
	if !r.traced() {
		return
	}
	m := b.scrapeAll(r)
	delta := func(k string) float64 { return m[k] - b.scraped0[k] }
	r.layer("cluster.shard_s.p50", percentile(b.shardS, 50))
	r.layer("cluster.shard_s.max", percentile(b.shardS, 100))
	r.layer("cluster.worker_queue_wait_s.mean", ratio(delta("reese_serve_job_queue_wait_seconds_sum"), delta("reese_serve_job_queue_wait_seconds_count")))
	r.layer("cluster.worker_attempt_s.mean", ratio(delta("reese_serve_job_attempt_seconds_sum"), delta("reese_serve_job_attempt_seconds_count")))
	r.layer("cluster.http_ms.batch", b.rt.mean("batch"))
	r.layer("cluster.http_ms.poll", b.rt.mean("poll"))
	r.layer("cluster.merge_tail_s", mean(b.mergeTailS))
	r.layer("cluster.disk_write_mb_per_campaign", ratio(b.writes/(1<<20), float64(b.campaigns)))
	r.layer("cluster.retried", delta("reese_serve_shards_retried_total"))
	r.layer("cluster.reassigned", delta("reese_serve_shards_reassigned_total"))
	r.layer("cluster.corrupted", delta("reese_serve_shards_corrupted_total"))

	// The same spec in process: the merged report must match it, and the
	// wall-time gap is the coordinator's overhead.
	spec := harness.CampaignSpec{Workload: b.first.Workload, Machine: b.machine, Injections: b.first.Injections, Seed: b.first.Seed}
	end := r.tr.begin("in-process", "harness.Campaign")
	t0 := time.Now()
	rep, err := harness.Campaign(spec, harness.Options{})
	wall := time.Since(t0).Seconds()
	end("")
	if err != nil {
		r.problem("in-process campaign: %v", err)
		return
	}
	raw, err := json.Marshal(rep)
	if err == nil {
		raw, err = canonical(raw)
	}
	if err != nil || string(raw) != string(b.firstRep) {
		r.problem("cluster report for seed %d differs from the in-process report", spec.Seed)
	}
	r.layer("cluster.overhead_frac", 1-ratio(wall, b.firstWall))
}

func (b *clusterBench) close() {
	b.coord.stop()
	for _, w := range b.workers {
		w.stop()
	}
}

// timedTransport times the coordinator's requests to its workers by
// kind: batch submits and job long-polls.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
	mu   sync.Mutex
	ms   map[string][]float64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := "poll"
	switch {
	case strings.HasSuffix(req.URL.Path, "/batch"):
		kind = "batch"
	case req.URL.Path == "/readyz":
		kind = "ready"
	}
	end := t.tr.begin("coordinator http", req.Method+" "+kind)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	end("")
	t.mu.Lock()
	t.ms[kind] = append(t.ms[kind], float64(d.Nanoseconds())/1e6)
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) mean(kind string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return mean(t.ms[kind])
}
