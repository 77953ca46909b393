package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/server"
	"reese/internal/workload"
)

// The serve workload's request mix. Each client sends its requests in
// cycles of serveMix: F a /v1/faults campaign, R a /v1/run simulation, P
// a repeat, which re-sends one of the same client's earlier completed
// requests byte for byte, so it should be answered from the result
// cache. A fixed cycle, rather than a random draw per request, keeps
// the share of each kind the same in every run: 50% faults, 30% runs,
// 20% repeats.
const (
	serveClients    = 2
	serveMix        = "FRFPFRFPFR"
	serveInjections = 40
	serveRunLo      = 20_000
	serveRunSpan    = 40_001 // run budgets are unique in [lo, lo+span)
)

// serveBench drives one in-process reese-serve replica (one job worker,
// journal on, default cache) with two closed-loop clients, one
// connection each: callers that wait for each reply. Only here do queue
// wait, journal fsync, cache lookup and JSON sit on the latency path.
type serveBench struct {
	rep     *replica
	clients []*serveClient
	writes  float64 // storage bytes written during the window
}

// serveClient is one closed-loop caller with its own seeded request
// sequence, so the inputs depend only on the seed, not on timing.
type serveClient struct {
	id      int
	http    *http.Client
	rng     *rand.Rand
	k       int // requests sent
	faults  int // faults requests sent
	runs    int // run requests sent
	history []sentRequest
	seen    []served // traced runs only
}

type sentRequest struct {
	path, body string
	result     []byte
}

// served is one response, kept for the traced run's server metrics.
type served struct {
	kind   string
	status int
	latMS  float64
	view   server.JobView
}

func (b *serveBench) setup(r *run) error {
	rep, err := startReplica(filepath.Join(r.tmp, "journal.jsonl"), nil)
	if err != nil {
		return err
	}
	b.rep = rep
	c := newClient()
	// One warm-up request per kind; the faults warm-up covers every
	// program so no golden run is built inside the window.
	for _, p := range workload.Names() {
		body := fmt.Sprintf(`{"workload":%q,"injections":1,"seed":%d}`, p, r.seed)
		if err := b.warm(r, c, "/v1/faults?wait=120s", body); err != nil {
			return err
		}
	}
	if err := b.warm(r, c, "/v1/run?wait=120s", `{"workload":"gcc","insts":1000}`); err != nil {
		return err
	}
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, &serveClient{
			id:   i,
			http: newClient(),
			rng:  rand.New(rand.NewSource(int64(r.inputSeed(i)))),
		})
	}
	return nil
}

func (b *serveBench) warm(r *run, c *http.Client, path, body string) error {
	end := r.tr.begin("setup", "POST "+path)
	status, raw, err := post(c, b.rep.url()+path, body)
	end("")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up %s: %d %s", path, status, raw)
	}
	return nil
}

func (b *serveBench) measure(r *run, until time.Time) {
	w0 := procWriteBytes()
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.k == 0 || time.Now().Before(until) {
				b.request(r, c)
			}
		}()
	}
	wg.Wait()
	b.writes = procWriteBytes() - w0
}

// next is client c's next request. Its kind follows serveMix; its
// inputs come from the run's seed and the request's index, and the
// repeated request from the client's own seeded generator.
func (c *serveClient) next(r *run) (kind, path, body string, orig *sentRequest) {
	names := workload.Names()
	idx := c.k*serveClients + c.id
	k := serveMix[c.k%len(serveMix)]
	if k == 'P' && len(c.history) == 0 {
		k = 'F'
	}
	switch k {
	case 'P':
		orig = &c.history[c.rng.Intn(len(c.history))]
		return "repeat", orig.path, orig.body, orig
	case 'R':
		span := r.scaled(serveRunSpan, 1_009)
		// 7919 is a prime that divides no span used (40001 = 13*17*181,
		// 1009), so idx -> idx*7919 mod span is one-to-one and no two run
		// requests of a process share a budget.
		insts := r.scaled(serveRunLo, 1_000) + (idx*7919+int(r.inputSeed(0)%uint64(span)))%span
		p := names[(c.runs*serveClients+c.id)%len(names)]
		c.runs++
		return "run", "/v1/run?wait=120s", fmt.Sprintf(`{"workload":%q,"insts":%d}`, p, insts), nil
	default:
		p := names[(c.faults*serveClients+c.id)%len(names)]
		c.faults++
		return "faults", "/v1/faults?wait=120s",
			fmt.Sprintf(`{"workload":%q,"injections":%d,"seed":%d}`, p, r.scaled(serveInjections, 2), r.inputSeed(1_000_000+idx)), nil
	}
}

// request sends one request, waits for the reply and checks it.
func (b *serveBench) request(r *run, c *serveClient) {
	kind, path, body, orig := c.next(r)
	c.k++
	end := r.tr.begin(fmt.Sprintf("client %d", c.id+1), kind)
	t0 := time.Now()
	status, raw, err := post(c.http, b.rep.url()+path, body)
	lat := time.Since(t0)
	var v server.JobView
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &v)
	}
	if err == nil && status == http.StatusOK && v.State != server.StateDone {
		err = fmt.Errorf("job %s is %s: %s", v.ID, v.State, v.Error)
	}
	if err == nil && status == http.StatusOK {
		err = checkServed(kind, body, orig, v.Result)
	}
	failed := 0
	switch {
	case err != nil:
		failed = 1
		r.problem("%s %s: %v", path, body, err)
	case status != http.StatusOK:
		failed = 1
		r.problem("%s %s: status %d", path, body, status)
	}
	end(fmt.Sprint(status))
	r.op(kind, lat, 1, failed)
	if failed == 0 {
		d, cerr := canonical(v.Result)
		if cerr != nil {
			r.problem("%s: result is not JSON: %v", path, cerr)
		}
		sum := sha256.Sum256(d)
		r.digest(fmt.Sprintf("client%d.%d", c.id, c.k), sum[:])
		if orig == nil {
			c.history = append(c.history, sentRequest{path, body, v.Result})
		}
	}
	if r.traced() {
		c.seen = append(c.seen, served{kind, status, float64(lat.Nanoseconds()) / 1e6, v})
		if v.Spans != nil {
			r.tr.add(fmt.Sprintf("client %d job", c.id+1), v.Spans)
		}
	}
}

// checkServed checks a completed job's payload: a repeat must equal the
// original byte for byte, a fault campaign's outcomes must sum to its
// injections on both machines, and a run must reach its budget.
func checkServed(kind, body string, orig *sentRequest, result []byte) error {
	switch kind {
	case "repeat":
		if !bytes.Equal(result, orig.result) {
			return fmt.Errorf("repeat result differs from the original's")
		}
	case "faults":
		var req server.FaultsRequest
		var p server.FaultsPayload
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return err
		}
		if err := json.Unmarshal(result, &p); err != nil {
			return err
		}
		if len(p.Reports) != 2 {
			return fmt.Errorf("%d reports, want 2", len(p.Reports))
		}
		for _, rep := range p.Reports {
			if rep.Injected != uint64(req.Injections) || rep.Total() != rep.Injected {
				return fmt.Errorf("%s: %d injected, outcomes sum to %d", rep.Config, rep.Injected, rep.Total())
			}
		}
	case "run":
		var req server.RunRequest
		var res pipeline.Result
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return err
		}
		if err := json.Unmarshal(result, &res); err != nil {
			return err
		}
		if res.Committed < req.Insts && !res.Halted {
			return fmt.Errorf("committed %d of a %d budget", res.Committed, req.Insts)
		}
	}
	return nil
}

func (b *serveBench) check(r *run) {
	if !r.traced() {
		return
	}
	var queue, journal, cacheHit, outside []float64
	attempt := map[string][]float64{}
	var n, cached, shed float64
	for _, c := range b.clients {
		for _, s := range c.seen {
			n++
			if s.status == http.StatusServiceUnavailable {
				shed++
			}
			root := s.view.Spans
			if root == nil {
				continue
			}
			outside = append(outside, s.latMS-ms(root))
			if s.view.Cached {
				cached++
				cacheHit = append(cacheHit, s.latMS)
				continue
			}
			if q := root.Find("queue-wait"); q != nil {
				queue = append(queue, ms(q))
			}
			if j := root.Find("journal-append submit"); j != nil {
				journal = append(journal, ms(j))
			}
			if a := root.Find("attempt 1"); a != nil {
				attempt[s.view.Kind] = append(attempt[s.view.Kind], ms(a))
			}
		}
	}
	r.layer("server.queue_wait_ms.p50", percentile(queue, 50))
	r.layer("server.queue_wait_ms.p90", percentile(queue, 90))
	r.layer("server.attempt_ms.faults", mean(attempt["faults"]))
	r.layer("server.attempt_ms.run", mean(attempt["run"]))
	r.layer("server.journal_append_ms.p50", percentile(journal, 50))
	r.layer("server.cache_hit_ms.p50", percentile(cacheHit, 50))
	r.layer("server.outside_job_ms.p50", percentile(outside, 50))
	r.layer("server.cache_hit_frac", ratio(cached, n))
	r.layer("server.disk_write_kb_per_req", ratio(b.writes/1024, n))
	r.layer("server.shed", shed)
	m, err := scrape(b.clients[0].http, b.rep.url(), "reese_serve_jobs_retried_total")
	if err != nil {
		r.problem("scrape /metrics: %v", err)
	}
	r.layer("server.retries", m["reese_serve_jobs_retried_total"])
}

func (b *serveBench) close() {
	b.rep.stop()
}

// ms is a finished span's length in milliseconds.
func ms(s *obs.Span) float64 {
	return float64(spanEnd(s).Sub(s.Start).Nanoseconds()) / 1e6
}
