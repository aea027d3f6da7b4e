// POST /v1/batch: many (kernel, levers) pairs under one admission ticket,
// results streamed back as NDJSON lines in completion order.
//
// Semantics:
//
//   - One ticket. The whole batch passes admission control once — one
//     queue slot, one worker slot, one min(server, request) deadline. A
//     full queue sheds the entire batch with 429 before any work starts; a
//     client gone while queued is one 499.
//   - Per-item isolation. Items execute independently: a malformed item is
//     its own 400 line, a trapping or verifier-rejected kernel its own 422
//     line, and neither disturbs its siblings. A panic anywhere in one
//     item's pipeline is contained to that item's line.
//   - Join-safe streaming. Results arrive in completion order, not
//     submission order; every line carries the item's index so the client
//     joins them back. The final line is a trailer ({"done":true, ...})
//     with outcome counts — its presence distinguishes a complete batch
//     from a truncated stream.
//   - Shared deadline. The batch deadline covers all items; items still
//     running (or not yet started) when it passes report 504/499 lines and
//     count as canceled in the trailer. Identical items in one batch (or
//     across concurrent batches) deduplicate through the singleflight
//     compile cache: the artifact is compiled once.
//
// The HTTP status is decided before the first item completes, so it is 200
// whenever the batch was admitted; per-item status lives in the lines.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/frontend"
	"fgp/internal/verify"
)

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	// Items are executed with per-item isolation; each produces one result
	// line. An item's own TimeoutMs tightens the batch deadline for that
	// item only.
	Items []RunRequest `json:"items"`
	// TimeoutMs tightens (never extends) the server's per-request budget
	// for the whole batch.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Parallelism bounds how many items run concurrently; 0 means the
	// server's Workers. It is clamped to Workers, never refused.
	Parallelism int `json:"parallelism,omitempty"`
}

// maxBatchItems bounds how many items one batch may carry.
const maxBatchItems = 256

// BatchItemResult is one NDJSON line of the /v1/batch response stream.
type BatchItemResult struct {
	Index             int                   `json:"index"`
	Status            int                   `json:"status"`
	Result            *RunResponse          `json:"result,omitempty"`
	Error             string                `json:"error,omitempty"`
	Diagnostics       []verify.Diagnostic   `json:"diagnostics,omitempty"`
	SourceDiagnostics []frontend.Diagnostic `json:"source_diagnostics,omitempty"`
}

// BatchTrailer is the final NDJSON line: outcome counts for the whole
// batch. A stream without it was truncated (connection lost mid-batch).
type BatchTrailer struct {
	Done      bool    `json:"done"`
	Items     int     `json:"items"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	Canceled  int     `json:"canceled"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	switch n := len(req.Items); {
	case n == 0:
		writeError(w, s.fail(http.StatusBadRequest, "batch carries no items"))
		return
	case n > maxBatchItems:
		writeError(w, s.fail(http.StatusBadRequest, "batch carries %d items, limit %d", n, maxBatchItems))
		return
	}

	s.admit(w, r, time.Duration(req.TimeoutMs)*time.Millisecond, func(ctx context.Context) {
		s.met.batches.Add(1)
		s.runBatch(ctx, w, &req)
	})
}

// runBatch executes an admitted batch and streams its result lines.
func (s *Server) runBatch(ctx context.Context, w http.ResponseWriter, req *BatchRequest) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var wmu sync.Mutex
	writeLine := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return // fixed structs; cannot happen
		}
		wmu.Lock()
		defer wmu.Unlock()
		_, _ = w.Write(append(data, '\n'))
		if flusher != nil {
			flusher.Flush() // stream each line; the client may act on early results
		}
	}

	par := req.Parallelism
	if par <= 0 || par > s.cfg.Workers {
		par = s.cfg.Workers
	}
	if par > len(req.Items) {
		par = len(req.Items)
	}

	var ok, failed, canceled atomic.Int64
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.met.items.Add(1)

			ictx := ctx
			if ms := req.Items[i].TimeoutMs; ms > 0 {
				var cancel context.CancelFunc
				ictx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
				defer cancel()
			}
			if err := ictx.Err(); err != nil {
				// The batch died before this item started; report without
				// touching the pipeline.
				canceled.Add(1)
				status := statusClientClosedRequest
				if errors.Is(err, context.DeadlineExceeded) {
					status = http.StatusGatewayTimeout
				}
				writeLine(BatchItemResult{Index: i, Status: status, Error: "batch " + err.Error()})
				return
			}

			var resp *RunResponse
			opt, ae := s.checkLevers(&req.Items[i])
			if ae == nil {
				resp, ae = s.execute(ictx, &req.Items[i], opt)
			}
			if ae == nil {
				ok.Add(1)
				writeLine(BatchItemResult{Index: i, Status: http.StatusOK, Result: resp})
				return
			}
			if ae.status == statusClientClosedRequest || ae.status == http.StatusGatewayTimeout {
				canceled.Add(1)
			} else {
				failed.Add(1)
			}
			writeLine(BatchItemResult{
				Index:             i,
				Status:            ae.status,
				Error:             ae.body.Error,
				Diagnostics:       ae.body.Diagnostics,
				SourceDiagnostics: ae.body.SourceDiagnostics,
			})
		}(i)
	}
	wg.Wait()

	writeLine(BatchTrailer{
		Done:      true,
		Items:     len(req.Items),
		OK:        int(ok.Load()),
		Failed:    int(failed.Load()),
		Canceled:  int(canceled.Load()),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
