package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"reese/internal/server"
)

// quiet discards the servers' and coordinator's logs, which would
// otherwise interleave with the benchmark's output.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// replica is one in-process reese-serve instance on a loopback
// listener.
type replica struct {
	srv *server.Server
	ts  *httptest.Server
}

// startReplica starts a reese-serve replica with one job worker; a
// non-empty journal path turns on the fsync'd job journal. mount, when
// set, adds routes before the listener opens.
func startReplica(journal string, mount func(*server.Server)) (*replica, error) {
	srv, err := server.New(server.Config{
		Workers:     1,
		JournalPath: journal,
		Logger:      quiet,
	})
	if err != nil {
		return nil, err
	}
	if mount != nil {
		mount(srv)
	}
	return &replica{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (p *replica) url() string { return p.ts.URL }

// stop closes the listener (waiting for open requests) and drains the
// server.
func (p *replica) stop() {
	if p == nil {
		return
	}
	p.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // a drain that times out leaves nothing to report
}

// newClient returns an HTTP client that holds a single connection, so
// a closed-loop client is one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// post sends a JSON body and returns the status and full response body.
func post(c *http.Client, url, body string) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// scrape reads a replica's /metrics and returns the sum of every sample
// of each named metric (all label sets).
func scrape(c *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// name{labels} value, or name value.
		name, value := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			name, value = line[:strings.IndexByte(line, '{')], line[i+1:]
		} else if f := strings.Fields(line); len(f) >= 2 {
			name, value = f[0], f[1]
		}
		if !want[name] {
			continue
		}
		if f := strings.Fields(value); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out, sc.Err()
}

// hostFields are the report fields that measure the host rather than
// the simulation; output digests leave them out.
var hostFields = []string{"wall_seconds", "injections_per_sec"}

// canonical re-encodes JSON without host-dependent fields, with object
// keys sorted, so equal simulations give equal bytes.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(stripHost(v))
}

func stripHost(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for _, f := range hostFields {
			delete(x, f)
		}
		for k, c := range x {
			x[k] = stripHost(c)
		}
	case []any:
		for i, c := range x {
			x[i] = stripHost(c)
		}
	}
	return v
}
