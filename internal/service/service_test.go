package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRun sends a /v1/run request and decodes the response envelope.
func postRun(t *testing.T, ts *httptest.Server, req any) (int, *RunResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.Unmarshal(data, &eb)
		return resp.StatusCode, nil, eb.Error
	}
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, data)
	}
	return resp.StatusCode, &rr, ""
}

func TestHealthzAndKernels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var ks []KernelInfo
	if err := json.NewDecoder(resp.Body).Decode(&ks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ks) != 18 {
		t.Fatalf("catalog lists %d kernels, want 18", len(ks))
	}
	if ks[0].Name != "lammps-1" || ks[0].App != "lammps" {
		t.Errorf("first kernel = %+v, want lammps-1", ks[0])
	}
}

// TestRunCachedBitIdentical is the core cache acceptance criterion: a
// request served from the compile cache returns bit-identical simulation
// results to the cold compile that filled it.
func TestRunCachedBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := RunRequest{Kernel: "sphot-1", Cores: 3}

	code, cold, _ := postRun(t, ts, req)
	if code != 200 {
		t.Fatalf("cold run: %d", code)
	}
	if cold.CachedArtifact {
		t.Error("first request claims a cache hit")
	}
	if cold.Cycles <= 0 || cold.SeqCycles <= cold.Cycles || cold.Speedup <= 1 {
		t.Errorf("implausible cold result: %+v", cold)
	}

	code, warm, _ := postRun(t, ts, req)
	if code != 200 {
		t.Fatalf("warm run: %d", code)
	}
	if !warm.CachedArtifact {
		t.Error("second identical request missed the cache")
	}
	// Strip the fields that legitimately differ (timings, cache flag) and
	// require everything else to match exactly.
	norm := func(r RunResponse) RunResponse {
		r.CachedArtifact = false
		r.CompileMs = 0
		r.SimMs = 0
		return r
	}
	a, _ := json.Marshal(norm(*cold))
	b, _ := json.Marshal(norm(*warm))
	if !bytes.Equal(a, b) {
		t.Errorf("cached result differs from cold compile:\ncold: %s\nwarm: %s", a, b)
	}

	m := s.Snapshot()
	if m.Cache.Hits == 0 || m.Cache.Misses == 0 || m.Cache.HitRate <= 0 {
		t.Errorf("cache metrics did not move: %+v", m.Cache)
	}
}

// TestRunInlineIRSharesCache: submitting the same kernel as inline IR must
// content-address to the same artifact as the named form.
func TestRunInlineIRSharesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, named, _ := postRun(t, ts, RunRequest{Kernel: "irs-1", Cores: 2})
	if code != 200 {
		t.Fatalf("named run: %d", code)
	}

	k, err := kernels.ByName("irs-1")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ir.MarshalLoop(k.Build())
	if err != nil {
		t.Fatal(err)
	}
	code, inline, _ := postRun(t, ts, RunRequest{IR: wire, Cores: 2})
	if code != 200 {
		t.Fatalf("inline run: %d", code)
	}
	if !inline.CachedArtifact {
		t.Error("inline IR of a built-in kernel missed the cache the named request filled")
	}
	if inline.Cycles != named.Cycles || inline.SeqCycles != named.SeqCycles {
		t.Errorf("inline vs named drifted: %d/%d vs %d/%d cycles",
			inline.Cycles, inline.SeqCycles, named.Cycles, named.SeqCycles)
	}
}

func TestRunReferenceEngineMatches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, def, _ := postRun(t, ts, RunRequest{Kernel: "umt2k-1", Cores: 2})
	if code != 200 {
		t.Fatalf("default-engine run: %d", code)
	}
	code, ref, _ := postRun(t, ts, RunRequest{Kernel: "umt2k-1", Cores: 2, Engine: "reference"})
	if code != 200 {
		t.Fatalf("reference run: %d", code)
	}
	if def.Cycles != ref.Cycles {
		t.Errorf("engines disagree over HTTP: default %d, reference %d", def.Cycles, ref.Cycles)
	}
	if !ref.CachedArtifact {
		t.Error("engine selection must not change the content address")
	}
}

// TestRunUnknownEngineRejectedBeforeAdmission: an engine typo, and a bad
// value of any other lever, is answered before the request takes an
// admission slot or compiles anything. A batch item with a bad lever gets
// its own 400 line and fills nothing.
func TestRunUnknownEngineRejectedBeforeAdmission(t *testing.T) {
	for _, c := range []struct {
		name, body, want string
	}{
		{"engine", `{"kernel":"irs-1","engine":"burst"}`, `unknown engine "burst" (have [threaded reference])`},
		{"trace", `{"kernel":"umt2k-6","cores":4,"trace":"bogus"}`, `unknown trace format "bogus" (have text, perfetto, report)`},
		{"partitioner", `{"kernel":"irs-1","partitioner":"annealed"}`, `unknown partitioner "annealed" (have [heuristic search])`},
		{"cores", `{"kernel":"irs-1","cores":17}`, "cores must be in [1, 16]"},
		{"queue_len", `{"kernel":"irs-1","queue_len":4097}`, "queue_len must be in [1, 4096] (0 = default)"},
		{"transfer_latency", `{"kernel":"irs-1","transfer_latency":-1}`, "transfer_latency must be in [0, 1048576]"},
		{"normalize_ops", `{"kernel":"irs-1","normalize_ops":65}`, "normalize_ops must be in [0, 64]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			code, eb := postRaw(t, ts, c.body)
			if code != http.StatusBadRequest || eb.Error != c.want {
				t.Fatalf("%d %q, want 400 %q", code, eb.Error, c.want)
			}
			m := s.Snapshot()
			if m.Requests != 0 || m.Artifacts.Compiles != 0 || m.Errors != 1 {
				t.Errorf("rejection reached admission: requests=%d compiles=%d errors=%d",
					m.Requests, m.Artifacts.Compiles, m.Errors)
			}
		})
	}
	t.Run("batch item trace", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		code, items, trailer := postBatch(t, ts, BatchRequest{Items: []RunRequest{
			{Kernel: "umt2k-6", Cores: 4, Trace: "bogus"},
		}})
		if code != http.StatusOK || trailer == nil || len(items) != 1 {
			t.Fatalf("batch: %d, %d lines, trailer %v", code, len(items), trailer)
		}
		if it := items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, `unknown trace format "bogus"`) {
			t.Errorf("item line %d %q, want 400 naming the trace format", it.Status, it.Error)
		}
		if m := s.Snapshot(); m.Artifacts.Compiles != 0 || m.Cache.Misses != 0 || m.Errors != 1 {
			t.Errorf("a rejected item filled: compiles=%d misses=%d errors=%d",
				m.Artifacts.Compiles, m.Cache.Misses, m.Errors)
		}
	})
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"neither", `{}`, 400, "exactly one of kernel, ir or source"},
		{"both", `{"kernel":"irs-1","ir":{"name":"x"}}`, 400, "exactly one"},
		{"unknown kernel", `{"kernel":"lulesh-1"}`, 404, "lulesh-1"},
		{"bad ir", `{"ir":{"name":"x"}}`, 400, "ir:"},
		{"bad cores", `{"kernel":"irs-1","cores":99}`, 400, "cores"},
		{"negative queue", `{"kernel":"irs-1","queue_len":-1}`, 400, "queue_len"},
		{"unknown field", `{"kernel":"irs-1","corse":4}`, 400, "unknown field"},
		{"bad trace format", `{"kernel":"sphot-1","cores":2,"trace":"svg"}`, 400, "unknown trace format"},
		{"unknown engine", `{"kernel":"irs-1","engine":"bogus"}`, 400, `unknown engine "bogus" (have [threaded reference])`},
		{"deleted burst engine", `{"kernel":"irs-1","engine":"burst"}`, 400, `unknown engine "burst"`},
		{"legacy reference field", `{"kernel":"irs-1","reference":true}`, 400, "unknown field"},
		{"trailing garbage", `{"kernel":"umt2k-6","cores":2}garbage`, 400, "trailing data after request object"},
		{"second object", `{"kernel":"umt2k-6","cores":2} {"kernel":"nope"}`, 400, "trailing data after request object"},
		{"trailing brace", `{"kernel":"umt2k-6","cores":2}}`, 400, "trailing data after request object"},
		{"trailing whitespace", "{\"kernel\":\"umt2k-6\",\"cores\":2}\n\t ", 200, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.code, data)
			}
			var eb errorBody
			_ = json.Unmarshal(data, &eb)
			if !strings.Contains(eb.Error, c.want) {
				t.Errorf("error %q does not mention %q", eb.Error, c.want)
			}
		})
	}
}

func TestRunBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	big := fmt.Sprintf(`{"kernel":"irs-1","cores":2,"trace":%q}`, strings.Repeat("x", 2<<10))
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestRunAttributionAndPerfettoTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, rr, _ := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 3, Attribution: true, Trace: "perfetto"})
	if code != 200 {
		t.Fatalf("run: %d", code)
	}
	if !strings.Contains(rr.Attribution, "stall attribution — 3 cores") {
		t.Errorf("attribution text missing or malformed:\n%s", rr.Attribution)
	}
	if err := obs.ValidatePerfetto(rr.Trace); err != nil {
		t.Errorf("returned trace fails perfetto validation: %v", err)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Warm one request through so the drain has completed work behind it.
	if code, _, _ := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2}); code != 200 {
		t.Fatalf("warmup failed: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	code, _, msg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2})
	if code != http.StatusServiceUnavailable || !strings.Contains(msg, "draining") {
		t.Errorf("run after drain: %d %q, want 503 draining", code, msg)
	}
	// Levers are checked before admission, so a bad one is a 400 even now.
	if code, _, msg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 99}); code != http.StatusBadRequest {
		t.Errorf("bad lever after drain: %d %q, want 400", code, msg)
	}
	if !s.Snapshot().Draining {
		t.Error("metrics do not report draining")
	}
}

// TestAttributionMatchesGoldenReport is the cross-surface acceptance check:
// the sphot-1 attribution report served over HTTP must be byte-for-byte the
// golden text pinned by the experiments package (what the CLI prints).
func TestAttributionMatchesGoldenReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/attribution?kernel=sphot-1&cores=1,3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	want, err := readGoldenAttribution()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP attribution drifted from the golden CLI report\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestQueueFullSheds pins the admission-control contract deterministically:
// with the only worker slot held and the queue at its depth limit, the next
// request is shed with 429 immediately.
func TestQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.sem <- struct{}{} // occupy the only worker from the outside
	defer func() { <-s.sem }()

	queuedDone := make(chan int, 1)
	go func() {
		code, _, _ := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2})
		queuedDone <- code
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })

	code, _, msg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2})
	if code != http.StatusTooManyRequests || !strings.Contains(msg, "queue full") {
		t.Errorf("over-depth request: %d %q, want 429 queue full", code, msg)
	}
	if s.Snapshot().Rejected == 0 {
		t.Error("rejection not counted")
	}

	<-s.sem // free the worker; the queued request must now run
	if code := <-queuedDone; code != 200 {
		t.Errorf("queued request finished with %d, want 200", code)
	}
	s.sem <- struct{}{} // restore for the deferred release
}

// TestCancelWhileQueued: a client that disconnects while waiting for a
// worker must leave the queue (and be counted) without consuming a slot.
func TestCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(RunRequest{Kernel: "sphot-1", Cores: 2})
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled client saw no error")
	}
	waitFor(t, func() bool {
		m := s.Snapshot()
		return m.Queued == 0 && m.Canceled >= 1
	})
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAttributionHonorsDeadline: /v1/attribution resolves and simulates
// its rows under the request's deadline. Eight recorded rows of a primed
// kernel take longer than the server budget, so the answer is a 504 near
// the budget, not a report well after it.
func TestAttributionHonorsDeadline(t *testing.T) {
	const budget = 300 * time.Millisecond
	s, ts := newTestServer(t, Config{Timeout: budget})
	if code, _, msg := postRun(t, ts, RunRequest{Kernel: "irs-1", Cores: 4}); code != http.StatusOK {
		t.Fatalf("priming run: %d %q", code, msg)
	}
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/attribution?kernel=irs-1&cores=4,4,4,4,4,4,4,4")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d after %v, want 504 (%s)", resp.StatusCode, elapsed, data)
	}
	// The slack covers the recorded row the deadline cut: under the race
	// detector it takes several hundred milliseconds to stop and hand back
	// its partial recording.
	if elapsed > budget+time.Second {
		t.Errorf("504 after %v; the budget is %v", elapsed, budget)
	}
	if m := s.Snapshot(); m.Canceled != 1 || m.Errors != 0 {
		t.Errorf("canceled=%d errors=%d, want the deadline counted once as canceled", m.Canceled, m.Errors)
	}
}

func TestAttributionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for url, code := range map[string]int{
		"/v1/attribution":                          400,
		"/v1/attribution?kernel=sphot-1&cores=0":   400,
		"/v1/attribution?kernel=sphot-1&cores=abc": 400,
		"/v1/attribution?kernel=nope-9&cores=1":    404,
		// One more core count than machspace.MaxCores.
		"/v1/attribution?kernel=sphot-1&cores=" + strings.Repeat("1,", 16) + "1": 400,
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("%s: status %d, want %d", url, resp.StatusCode, code)
		}
	}
}
