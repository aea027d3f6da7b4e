// Regression tests for deadline semantics under sustained load. The bug:
// admit() used to start the min(server, request) budget only after a worker
// slot was acquired, so time spent queued silently extended timeout_ms —
// under saturation, a request with a 50ms budget could wait seconds and
// then still run. The budget now starts at admission and covers the queue
// wait; a request whose deadline passes while queued is a prompt 504.

package service

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"fgp/internal/ir"
)

func TestQueuedRequestHonorsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Timeout: 60 * time.Second})
	s.sem <- struct{}{} // saturate the only worker from the outside
	defer func() { <-s.sem }()

	start := time.Now()
	code, _, msg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2, TimeoutMs: 50})
	elapsed := time.Since(start)

	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued request past its deadline: %d %q, want 504", code, msg)
	}
	if !strings.Contains(msg, "queued") {
		t.Errorf("504 body %q does not say the deadline passed in the queue", msg)
	}
	// The old behavior waited out the 60s server budget (or forever, for
	// requests with no server timeout). 5s is generous for a 50ms budget on
	// a loaded CI machine while still catching the regression.
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; the deadline must fire while queued, not after", elapsed)
	}
	m := s.Snapshot()
	if m.Queued != 0 {
		t.Errorf("request left a queue slot behind: queued=%d", m.Queued)
	}
	if m.Canceled == 0 {
		t.Error("queued-deadline expiry not counted")
	}
	if m.Latency.Count == 0 {
		t.Error("queued-deadline expiry not observed in the latency reservoir")
	}
}

// TestBatchQueuedDeadline: the same contract holds for a whole batch — its
// TimeoutMs covers the queue wait, and expiry is one 504 before any item
// runs.
func TestBatchQueuedDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Timeout: 60 * time.Second})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	code, _, trailer := postBatch(t, ts, BatchRequest{
		Items:     []RunRequest{{Kernel: "sphot-1", Cores: 2}, {Kernel: "irs-1", Cores: 2}},
		TimeoutMs: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued batch past its deadline: %d, want 504", code)
	}
	if trailer != nil {
		t.Error("timed-out batch produced a trailer; items must not have run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("batch 504 took %v", elapsed)
	}
	if s.Snapshot().BatchItems != 0 {
		t.Error("timed-out batch executed items")
	}
}

// TestRequestDeadlineEndsWaitOnFill: a request that starts a compile
// waits on it like any other requester, so its own deadline answers 504
// long before the fill ends. (The requester used to run the fill on its
// own goroutine and answer only once the fill was done: a new 5M-trip loop
// with timeout_ms 1 took 1.08 s to time out.) The fill runs on, detached,
// for later requests.
func TestRequestDeadlineEndsWaitOnFill(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wire, err := ir.MarshalLoop(uniqueLoop(4242, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code, _, msg := postRun(t, ts, RunRequest{IR: wire, Cores: 2, TimeoutMs: 1})
	early := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms request: %d %q, want 504", code, msg)
	}
	if m := s.Snapshot(); m.Cache.Abandoned != 1 {
		t.Errorf("abandoned = %d, want 1: the requester that gave up on its fill", m.Cache.Abandoned)
	}
	code, _, msg = postRun(t, ts, RunRequest{IR: wire, Cores: 2})
	full := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("patient request: %d %q", code, msg)
	}
	if early > full/4 {
		t.Errorf("504 took %v; the request's work took %v in all", early, full)
	}
}

// TestAbandonedFillsHoldWorkerSlots: a fill whose request gave up keeps
// that request's worker slot until it ends. A run of requests with a 1 ms
// deadline, each for a new long loop, therefore starts no more fills than
// there are workers; the rest time out queued. (Each request used to free
// its slot at its deadline, so every one of them started a fill.)
func TestAbandonedFillsHoldWorkerSlots(t *testing.T) {
	const workers = 2
	s, ts := newTestServer(t, Config{Workers: workers, Timeout: 3 * time.Second})
	for i := range 4 * workers {
		wire, err := ir.MarshalLoop(uniqueLoop(int64(9000+i), 5_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if code, _, msg := postRun(t, ts, RunRequest{IR: wire, Cores: 2, TimeoutMs: 1}); code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: %d %q, want 504", i, code, msg)
		}
	}
	if cs := s.run.Cache().Stats(); cs.Fills != 0 {
		t.Fatalf("a fill completed while the requests ran (%+v); the loops are too short to hold the slots", cs)
	} else if cs.Entries > workers {
		t.Errorf("%d fills started, want at most %d: abandoned fills escaped admission control", cs.Entries, workers)
	}
	if m := s.Snapshot(); m.InFlight != workers {
		t.Errorf("inflight = %d, want %d slots held by abandoned fills", m.InFlight, workers)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m := s.Snapshot(); m.InFlight != 0 {
		t.Errorf("inflight = %d after drain; the fills' slots were not released", m.InFlight)
	}
}
