package cluster

// The coordinator's own HTTP surface: POST /v1/cluster/faults accepts
// a Campaign, shards it across the configured workers, and streams
// live progress back as it runs — chunked JSONL by default, SSE with
// ?stream=sse. The final frame carries the merged report (or the
// error); everything before it is Event progress frames. Streaming
// instead of poll-the-job fits the coordinator's shape: one request is
// one campaign, and the interesting signal is shard churn while it
// runs, not a terminal blob at the end.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"reese/internal/harness"
)

// resultFrame is the stream's final frame.
type resultFrame struct {
	Type   string                  `json:"type"`
	Report *harness.CampaignReport `json:"report,omitempty"`
	Table  string                  `json:"table,omitempty"`
	Err    string                  `json:"err,omitempty"`
}

// maxCampaignBody bounds a cluster campaign request body.
const maxCampaignBody = 4 << 20

// Handler returns the coordinator endpoint. Mount it on a reese-serve
// mux (Server.Mount) or serve it standalone.
func Handler(cfg Config) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxCampaignBody))
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, "read request: "+err.Error()), http.StatusBadRequest)
			return
		}
		var req Campaign
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, "decode request: "+err.Error()), http.StatusBadRequest)
			return
		}
		if err := req.validate(); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
			return
		}

		sse := r.URL.Query().Get("stream") == "sse"
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)

		// Events arrive from every worker goroutine; one writer guard
		// keeps frames whole on the wire.
		var mu sync.Mutex
		writeFrame := func(event string, v any) {
			raw, err := json.Marshal(v)
			if err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
			} else {
				w.Write(raw)
				w.Write([]byte("\n"))
			}
			if flusher != nil {
				flusher.Flush()
			}
		}

		runCfg := cfg
		prev := cfg.OnEvent
		runCfg.OnEvent = func(ev Event) {
			if prev != nil {
				prev(ev)
			}
			writeFrame("progress", ev)
		}
		rep, err := Run(r.Context(), runCfg, req)
		if err != nil {
			writeFrame("result", resultFrame{Type: "error", Err: err.Error()})
			return
		}
		writeFrame("result", resultFrame{Type: "result", Report: rep, Table: rep.Table()})
	})
}
