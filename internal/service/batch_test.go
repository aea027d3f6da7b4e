// Batch conformance: /v1/batch must give per-item isolation (one bad item
// costs one line, never the batch), join-safe streamed ordering (every index
// exactly once, trailer last), singleflight dedup of identical items,
// whole-batch 429/499 semantics, and goroutine convergence after a client
// abandons a streaming batch mid-flight.

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"fgp/internal/ir"
)

// postBatch sends a batch and parses the NDJSON stream into item lines and
// the trailer. A nil trailer means the stream was truncated.
func postBatch(t *testing.T, ts *httptest.Server, req BatchRequest) (int, []BatchItemResult, *BatchTrailer) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var (
		items   []BatchItemResult
		trailer *BatchTrailer
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after the trailer: %s", sc.Text())
		}
		var tr BatchTrailer
		if err := json.Unmarshal(sc.Bytes(), &tr); err == nil && tr.Done {
			trailer = &tr
			continue
		}
		var item BatchItemResult
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("unparseable line: %v\n%s", err, sc.Text())
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, items, trailer
}

// TestBatchMixedItemIsolation: healthy, malformed, verifier-rejected, and
// trapping items in one batch each get their own status line; none disturbs
// its siblings; the trailer counts match.
func TestBatchMixedItemIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	trap := ir.NewBuilder("div0", "i", 0, 8, 1)
	trap.ArrayI("n", []int64{1, 2, 3, 4, 5, 6, 7, 8})
	z := trap.ScalarI("z", 0)
	trap.StoreI("n", trap.Idx(), trap.Def("x", ir.DivE(ir.LDI("n", trap.Idx()), z)))
	trapWire, err := ir.MarshalLoop(trap.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	missWire, err := ir.MarshalLoop(uniqueLoop(9001, 64))
	if err != nil {
		t.Fatal(err)
	}

	shortQueue := 2
	req := BatchRequest{Items: []RunRequest{
		{Kernel: "sphot-1", Cores: 2},                         // 0: healthy hit
		{IR: json.RawMessage(`{"name":"x"}`), Cores: 2},       // 1: malformed → 400
		{Kernel: "lammps-3", Cores: 4, QueueLen: &shortQueue}, // 2: verifier-rejected → 422
		{IR: trapWire, Cores: 2},                              // 3: semantic trap → 422
		{IR: missWire, Cores: 2},                              // 4: healthy cold compile
		{Kernel: "sphot-1", Cores: 2, Engine: "burst"},        // 5: unknown engine → 400
	}}
	code, items, trailer := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", code)
	}
	if len(items) != len(req.Items) {
		t.Fatalf("%d item lines, want %d", len(items), len(req.Items))
	}
	byIndex := map[int]BatchItemResult{}
	for _, it := range items {
		byIndex[it.Index] = it
	}
	wantStatus := map[int]int{0: 200, 1: 400, 2: 422, 3: 422, 4: 200, 5: 400}
	for idx, want := range wantStatus {
		got, ok := byIndex[idx]
		if !ok {
			t.Fatalf("no line for item %d", idx)
		}
		if got.Status != want {
			t.Errorf("item %d: status %d, want %d (error %q)", idx, got.Status, want, got.Error)
		}
	}
	for _, idx := range []int{0, 4} {
		if byIndex[idx].Result == nil || byIndex[idx].Result.Cycles == 0 {
			t.Errorf("item %d: 200 line carries no result", idx)
		}
	}
	if len(byIndex[2].Diagnostics) == 0 {
		t.Error("verifier-rejected item carries no structured diagnostics")
	}
	if !strings.Contains(byIndex[3].Error, "division by zero") {
		t.Errorf("trap item error %q does not carry the trap diagnostic", byIndex[3].Error)
	}
	if want := `unknown engine "burst" (have [threaded reference])`; !strings.Contains(byIndex[5].Error, want) {
		t.Errorf("engine item error %q does not contain %q", byIndex[5].Error, want)
	}
	if trailer == nil {
		t.Fatal("stream has no trailer")
	}
	if trailer.Items != 6 || trailer.OK != 2 || trailer.Failed != 4 || trailer.Canceled != 0 {
		t.Errorf("trailer %+v, want items=6 ok=2 failed=4 canceled=0", trailer)
	}
}

// TestBatchJoinSafeOrdering: lines may arrive in completion order, but each
// index appears exactly once and the trailer is the final line (postBatch
// fails on a line after it), so a client can always join the stream back.
func TestBatchJoinSafeOrdering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req BatchRequest
	for i := 0; i < 12; i++ {
		k := []string{"sphot-1", "irs-1", "umt2k-1"}[i%3]
		req.Items = append(req.Items, RunRequest{Kernel: k, Cores: 1 + i%4})
	}
	req.Parallelism = 4
	code, items, trailer := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	seen := map[int]int{}
	for _, it := range items {
		seen[it.Index]++
		if it.Status != 200 {
			t.Errorf("item %d: status %d (%s)", it.Index, it.Status, it.Error)
		}
	}
	for i := 0; i < 12; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d appeared %d times, want exactly once", i, seen[i])
		}
	}
	if trailer == nil || trailer.OK != 12 {
		t.Fatalf("trailer %+v, want ok=12", trailer)
	}
}

// TestBatchDedupIdenticalItems: identical cold items in one batch must
// share a single compile through the singleflight cache — the artifact and
// its sequential baseline each compile exactly once.
func TestBatchDedupIdenticalItems(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wire, err := ir.MarshalLoop(uniqueLoop(31337, 64))
	if err != nil {
		t.Fatal(err)
	}
	var req BatchRequest
	for i := 0; i < 8; i++ {
		req.Items = append(req.Items, RunRequest{IR: wire, Cores: 2})
	}
	req.Parallelism = 8
	code, items, trailer := postBatch(t, ts, req)
	if code != http.StatusOK || trailer == nil || trailer.OK != 8 {
		t.Fatalf("batch: code %d trailer %+v, want 8 ok", code, trailer)
	}
	for _, it := range items[1:] {
		if it.Result.Cycles != items[0].Result.Cycles {
			t.Errorf("identical items disagree: %d vs %d cycles", it.Result.Cycles, items[0].Result.Cycles)
		}
	}
	m := s.Snapshot()
	if m.Artifacts.Compiles != 2 { // one artifact + one sequential baseline
		t.Errorf("8 identical items cost %d compiles, want 2 (artifact + baseline)", m.Artifacts.Compiles)
	}
	if m.Cache.Misses != 2 || m.Cache.Hits != 14 {
		t.Errorf("cache hits=%d misses=%d, want 14/2: dedup through singleflight broke", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Batches != 1 || m.BatchItems != 8 {
		t.Errorf("batches=%d items=%d, want 1/8", m.Batches, m.BatchItems)
	}
}

// TestBatchValidation: empty batches, oversized batches, unknown fields and
// trailing data are refused with 400 before admission.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	if code, _ := post(`{"items":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", code)
	}
	if code, _ := post(`{"items":[{"kernel":"sphot-1"},{"kernel":"sphot-1"},{"kernel":"sphot-1"}]}`); code != http.StatusBadRequest {
		t.Errorf("over-limit batch: %d, want 400", code)
	}
	if code, _ := post(`{"items":[{"kernel":"sphot-1"}],"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	if code, _ := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}
	for _, body := range []string{
		`{"items":[{"kernel":"umt2k-6","cores":2}]}garbage`,
		`{"items":[{"kernel":"umt2k-6","cores":2}]} {"items":[{"kernel":"nope"}]}`,
	} {
		if code, data := post(body); code != http.StatusBadRequest ||
			!strings.Contains(data, "trailing data after request object") {
			t.Errorf("%s: %d %s, want 400 naming the trailing data", body, code, data)
		}
	}
}

// TestBatchQueueFullSheds429: a batch is one admission ticket — a full
// queue refuses the whole batch up front, before any item runs.
func TestBatchQueueFullSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.sem <- struct{}{} // occupy the only worker from the outside
	defer func() { <-s.sem }()

	queuedDone := make(chan int, 1)
	go func() {
		code, _, _ := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2})
		queuedDone <- code
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })

	code, _, trailer := postBatch(t, ts, BatchRequest{Items: []RunRequest{{Kernel: "sphot-1", Cores: 2}}})
	if code != http.StatusTooManyRequests {
		t.Errorf("batch against a full queue: %d, want 429", code)
	}
	if trailer != nil {
		t.Error("shed batch still produced a trailer; items must not have run")
	}
	if s.Snapshot().BatchItems != 0 {
		t.Error("shed batch executed items")
	}

	<-s.sem
	if code := <-queuedDone; code != 200 {
		t.Errorf("queued request finished with %d, want 200", code)
	}
	s.sem <- struct{}{}
}

// TestBatchCancelMidStreamConverges: a client that abandons a streaming
// batch mid-flight must cost nothing durable — in-flight items abort with
// the context, the handler unwinds, and goroutines converge back.
func TestBatchCancelMidStreamConverges(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	var req BatchRequest
	for i := 0; i < 6; i++ {
		wire, err := ir.MarshalLoop(uniqueLoop(int64(5000+i), 2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		req.Items = append(req.Items, RunRequest{IR: wire, Cores: 2})
	}
	req.Parallelism = 2
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(20 * time.Millisecond) // let some items start
		cancel()
	}()
	resp, err := ts.Client().Do(hreq)
	if err == nil {
		// The request may have won the race and streamed some bytes before
		// the cancel; draining it must then fail or come back truncated.
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var tr BatchTrailer
			if json.Unmarshal(sc.Bytes(), &tr) == nil && tr.Done {
				t.Log("batch completed before the cancel fired; convergence check still applies")
			}
		}
		resp.Body.Close()
	}

	// Every admitted item must unwind: drain, then converge.
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after abandoned batch: %v", err)
	}
	m := s.Snapshot()
	if m.InFlight != 0 || m.Queued != 0 {
		t.Errorf("work left behind: inflight=%d queued=%d", m.InFlight, m.Queued)
	}

	ts.Close()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline+2 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines: %d at start, %d after shutdown\n%s", baseline, now, buf[:n])
	}
}

// TestBatchItemDeadlineIsPerItem: an item's own timeout_ms kills only that
// item; its siblings complete, and the trailer separates the outcomes.
func TestBatchItemDeadlineIsPerItem(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	slowWire, err := ir.MarshalLoop(uniqueLoop(777, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	req := BatchRequest{Items: []RunRequest{
		{Kernel: "sphot-1", Cores: 2},
		{IR: slowWire, Cores: 2, TimeoutMs: 1},
		{Kernel: "irs-1", Cores: 2},
	}}
	code, items, trailer := postBatch(t, ts, req)
	if code != http.StatusOK || trailer == nil {
		t.Fatalf("batch: code %d trailer %+v", code, trailer)
	}
	byIndex := map[int]BatchItemResult{}
	for _, it := range items {
		byIndex[it.Index] = it
	}
	if byIndex[0].Status != 200 || byIndex[2].Status != 200 {
		t.Errorf("sibling items disturbed: statuses %d/%d, want 200/200", byIndex[0].Status, byIndex[2].Status)
	}
	if st := byIndex[1].Status; st != http.StatusGatewayTimeout && st != statusClientClosedRequest {
		t.Errorf("deadlined item: status %d, want 504 or 499", st)
	}
	if trailer.OK != 2 || trailer.Canceled != 1 {
		t.Errorf("trailer %+v, want ok=2 canceled=1", trailer)
	}
}
