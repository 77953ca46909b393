package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFaultsTriageEndToEnd drives the triage tentpole through the HTTP
// surface: a /v1/faults job with triage enabled must answer with the
// escaped trials and their trace blobs in the payload, serve each trace
// individually at /v1/jobs/{id}/trace/{key}, and account for every
// replay in the reese_faults_triaged_total counter and the
// triage-duration histogram.
func TestFaultsTriageEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Out-of-sphere structures guarantee escapes for the triage pass.
	v := postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Workload:   "li",
		Injections: 60,
		Seed:       7,
		Structures: []string{"result", "regfile", "fetch-pc", "mem-word"},
		Triage:     true,
	})
	v = awaitJob(t, ts.URL, v.ID)
	if v.State != StateDone {
		t.Fatalf("faults job ended %s: %s", v.State, v.Error)
	}
	var payload FaultsPayload
	if err := json.Unmarshal(v.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Escapes) == 0 {
		t.Fatal("triaged campaign reported no escapes; nothing was exercised")
	}
	if len(payload.Traces) == 0 {
		t.Fatal("triaged campaign payload carries no trace blobs")
	}
	for i := range payload.Escapes {
		e := &payload.Escapes[i]
		if e.Triage == nil {
			t.Errorf("escape trial %d (%s) carries no triage record", e.Index, e.Outcome)
			continue
		}
		if !e.Triage.ReplayOK {
			t.Errorf("escape trial %d: triage replay did not reproduce the original", e.Index)
		}
		if e.Outcome == "sdc" && e.Triage.FirstDivergence == nil {
			t.Errorf("escape trial %d: SDC without first-divergence attribution", e.Index)
		}
	}

	// Every payload trace must be individually retrievable.
	for key, blob := range payload.Traces {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace/%s", ts.URL, v.ID, key))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace %q: status %d: %s", key, resp.StatusCode, body)
		}
		// The job view pretty-prints its embedded result, so compare the
		// two JSON forms whitespace-insensitively.
		var served, inline bytes.Buffer
		if err := json.Compact(&served, body); err != nil {
			t.Fatalf("trace %q is not JSON: %v", key, err)
		}
		if err := json.Compact(&inline, blob); err != nil {
			t.Fatalf("payload trace %q is not JSON: %v", key, err)
		}
		if !bytes.Equal(served.Bytes(), inline.Bytes()) {
			t.Errorf("trace %q served bytes differ from the payload blob", key)
		}
		if !strings.Contains(string(body), `"FAULT`) {
			t.Errorf("trace %q has no injection marker", key)
		}
	}

	// An unknown trace key is a clean 404, not a decode error.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace/99/99", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace key answered %d, want 404", resp.StatusCode)
	}

	// The triage pass must be visible in the metrics: one counter
	// increment per triaged trial (the escapes above), and as many
	// histogram observations.
	metrics := scrapeMetrics(t, ts.URL)
	if total := sumMetric(metrics, `reese_faults_triaged_total\{outcome="[a-z]+"\} (\d+)`); total != len(payload.Escapes) {
		t.Errorf("reese_faults_triaged_total sums to %d, want %d escapes:\n%s",
			total, len(payload.Escapes), grepMetrics(metrics, "triage"))
	}
	if count := sumMetric(metrics, `reese_faults_triage_duration_seconds_count (\d+)`); count != len(payload.Escapes) {
		t.Errorf("triage duration histogram holds %d observations, want %d:\n%s",
			count, len(payload.Escapes), grepMetrics(metrics, "triage"))
	}
}

// TestFaultsTriageRequiresWorkload pins the normalize rule: triage over
// the all-workloads sweep is a 400, not a silently untriaged campaign.
func TestFaultsTriageRequiresWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, _ := json.Marshal(FaultsRequest{Injections: 10, Triage: true})
	resp, err := http.Post(ts.URL+"/v1/faults", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("triage without workload answered %d, want 400: %s", resp.StatusCode, body)
	}
}

// sumMetric sums the first capture group of every pattern match.
func sumMetric(metrics, pattern string) int {
	re := regexp.MustCompile(pattern)
	total := 0
	for _, m := range re.FindAllStringSubmatch(metrics, -1) {
		n, _ := strconv.Atoi(m[1])
		total += n
	}
	return total
}

// TestFaultsAllWorkloadsHonoursRequest: the all-workloads sweep runs
// the request it was given. Every one of its twelve campaigns samples
// only the requested structures, at the requested golden-run length,
// on machines with the requested SECDED L2 (visible as corrected
// single-bit L2 faults).
func TestFaultsAllWorkloadsHonoursRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := awaitJob(t, ts.URL, postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Injections:  8,
		Seed:        5,
		Structures:  []string{"l2-line"},
		TargetInsts: 20_000,
		L2ECC:       true,
	}).ID)
	if v.State != StateDone {
		t.Fatalf("faults job ended %s: %s", v.State, v.Error)
	}
	var payload FaultsPayload
	if err := json.Unmarshal(v.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Reports) != 12 {
		t.Fatalf("got %d reports, want 12 (six workloads x two machines)", len(payload.Reports))
	}
	var corrected uint64
	for _, r := range payload.Reports {
		if len(r.Structures) != 1 || r.Structures[0].Structure != "l2-line" {
			t.Errorf("%s on %s sampled %d structures, want only l2-line", r.Workload, r.Config, len(r.Structures))
		}
		if r.GoldenInsts < 20_000 {
			t.Errorf("%s on %s golden run %d insts, want >= target_insts 20000", r.Workload, r.Config, r.GoldenInsts)
		}
		corrected += r.Corrected
	}
	if corrected == 0 {
		t.Error("no L2 fault was corrected; the machines ran without the requested SECDED L2")
	}
}
