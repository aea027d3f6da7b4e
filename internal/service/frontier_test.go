// /v1/frontier conformance: inverse queries answered from the cached
// surface with zero recompiles, structured 404 misses, bad-grid 400s,
// zero-valued lever grids, warm restart from the on-disk store, and swept
// points, heuristic or searched, that /v1/run then serves without
// compiling.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fgp/internal/machspace"
)

// postFrontier sends a raw /v1/frontier body and decodes the result.
func postFrontier(t *testing.T, ts *httptest.Server, body string) (int, *FrontierResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/frontier", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, data
	}
	var fr FrontierResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, data)
	}
	return resp.StatusCode, &fr, data
}

// smallGrid keeps test sweeps cheap: 2 queue capacities x 3 transfer
// latencies at 4 cores = 6 points, 2 compiles.
const smallGrid = `"grid":{"queue_len":[4,20],"transfer_latency":[0,5,50]}`

func TestFrontierInverseQueryCachedSurface(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	body := `{"kernel":"umt2k-4",` + smallGrid + `,"target_speedup":2.0}`
	code, first, _ := postFrontier(t, ts, body)
	if code != 200 {
		t.Fatalf("first query: %d", code)
	}
	if first.CachedSurface {
		t.Error("first query claims a cached surface")
	}
	if first.Minimal == nil || first.Minimal.Speedup < 2.0 {
		t.Fatalf("inverse answer %+v, want speedup >= 2.0", first.Minimal)
	}
	if len(first.Frontier) == 0 || first.Points != 6 {
		t.Fatalf("frontier %d points of %d swept, want a frontier over 6", len(first.Frontier), first.Points)
	}
	for i := 1; i < len(first.Frontier); i++ {
		if first.Frontier[i].Speedup <= first.Frontier[i-1].Speedup ||
			first.Frontier[i].HWCost <= first.Frontier[i-1].HWCost {
			t.Errorf("frontier not strictly ascending at %d", i)
		}
	}

	// The second identical query must be answered from the cached surface
	// with zero recompiles.
	before := s.Snapshot().Artifacts.Compiles
	code, second, _ := postFrontier(t, ts, body)
	if code != 200 {
		t.Fatalf("second query: %d", code)
	}
	if !second.CachedSurface {
		t.Error("second query resweeped instead of hitting the surface cache")
	}
	if after := s.Snapshot().Artifacts.Compiles; after != before {
		t.Errorf("second query cost %d compiles, want 0", after-before)
	}
	if second.SurfaceAddress != first.SurfaceAddress || *second.Minimal != *first.Minimal {
		t.Error("cached surface answered differently")
	}

	// A different question of the same surface is also compile-free.
	code, third, _ := postFrontier(t, ts, `{"kernel":"umt2k-4",`+smallGrid+`,"target_speedup":1.1}`)
	if code != 200 || !third.CachedSurface {
		t.Fatalf("re-query: code %d cached=%v, want cached hit", code, third != nil && third.CachedSurface)
	}
	if third.Minimal == nil || third.Minimal.HWCost > first.Minimal.HWCost {
		t.Errorf("easier target got a costlier machine: %+v vs %+v", third.Minimal, first.Minimal)
	}
}

func TestFrontierUnreachableTargetIsStructured404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, data := postFrontier(t, ts, `{"kernel":"sphot-1",`+smallGrid+`,"target_speedup":1000}`)
	if code != http.StatusNotFound {
		t.Fatalf("unreachable target: %d, want 404", code)
	}
	var miss FrontierMiss
	if err := json.Unmarshal(data, &miss); err != nil {
		t.Fatalf("miss body not structured: %v\n%s", err, data)
	}
	if miss.TargetSpeedup != 1000 || miss.BestSpeedup <= 0 || miss.Best == nil {
		t.Errorf("miss %+v, want the target echoed and the best achievable point named", miss)
	}
	if !strings.Contains(miss.Error, "1000") {
		t.Errorf("miss error %q does not name the target", miss.Error)
	}
}

func TestFrontierValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		code int
		want string
	}{
		{`{"kernel":"sphot-1","grid":{"transfer_latency":[-1]}}`, 400, "transfer_latency"},
		{`{"kernel":"sphot-1","grid":{"queue_len":[0]}}`, 400, "queue_len"},
		{`{"kernel":"sphot-1","grid":{"cores":[99]}}`, 400, "cores"},
		{`{"kernel":"sphot-1","grid":{"queue_len":[1,2,3,4,5,6,7,8,9,10],
			"transfer_latency":[0,1,2,3,4,5,6,7,8,9],
			"enq_cost":[0,1,2,3,4,5]}}`, 400, "budget"},
		{`{"kernel":"sphot-1","target_speedup":-1}`, 400, "target_speedup"},
		{`{"kernel":"sphot-1","partitioner":"annealing"}`, 400, "partitioner"},
		{`{"kernel":"no-such-kernel"}`, 404, "unknown kernel"},
		{`{}`, 400, "exactly one"},
		{`{"kernel":"sphot-1"}garbage`, 400, "trailing data after request object"},
		{`{"kernel":"sphot-1"} {"kernel":"nope"}`, 400, "trailing data after request object"},
	}
	for _, c := range cases {
		code, _, data := postFrontier(t, ts, c.body)
		if code != c.code {
			t.Errorf("%s: status %d, want %d", c.body, code, c.code)
		}
		if !strings.Contains(string(data), c.want) {
			t.Errorf("%s: body %s does not mention %q", c.body, data, c.want)
		}
	}

	// The GET spelling validates its parameters too.
	for path, want := range map[string]int{
		"/v1/frontier": 400, // no kernel
		"/v1/frontier?kernel=sphot-1&target_speedup=abc": 400,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestFrontierZeroValuedLeverGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Every lever dialed to its zero: a one-slot queue with free, instant
	// transfers. The point must simulate (or carry a structured rejection)
	// — never 500.
	code, fr, data := postFrontier(t, ts,
		`{"kernel":"sphot-1","grid":{"queue_len":[1],"transfer_latency":[0],"enq_cost":[0],"deq_cost":[0]}}`)
	if code != 200 {
		t.Fatalf("zero-lever grid: %d\n%s", code, data)
	}
	if fr.Points != 1 {
		t.Fatalf("swept %d points, want 1", fr.Points)
	}
	if fr.Rejected == 0 {
		if len(fr.Frontier) != 1 || fr.Frontier[0].Speedup <= 0 {
			t.Errorf("zero-lever point simulated but frontier is %+v", fr.Frontier)
		}
	} else if len(fr.Frontier) != 0 {
		t.Error("rejected point leaked into the frontier")
	}
}

func TestFrontierWarmRestartFromStore(t *testing.T) {
	dir := t.TempDir()
	body := `{"kernel":"umt2k-4",` + smallGrid + `,"target_speedup":2.0}`

	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	code, first, _ := postFrontier(t, ts1, body)
	if code != 200 {
		t.Fatalf("cold sweep: %d", code)
	}
	if c := s1.Snapshot().Artifacts.Compiles; c == 0 {
		t.Fatal("cold sweep cost no fills; the test proves nothing")
	}

	// A fresh daemon sharing the store directory: the repeated sweep must
	// be a disk hit with zero recompiles.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	code, second, _ := postFrontier(t, ts2, body)
	if code != 200 {
		t.Fatalf("warm sweep: %d", code)
	}
	m := s2.Snapshot()
	if m.Artifacts.Compiles != 0 {
		t.Errorf("warm restart recompiled %d times, want 0", m.Artifacts.Compiles)
	}
	if m.Artifacts.DiskHits == 0 {
		t.Error("warm restart never touched the disk store")
	}
	if !second.CachedSurface {
		t.Error("warm sweep not reported as cached")
	}
	if second.SurfaceAddress != first.SurfaceAddress {
		t.Errorf("surface address changed across restart: %s vs %s", second.SurfaceAddress, first.SurfaceAddress)
	}
	a, _ := json.Marshal(first.Frontier)
	b, _ := json.Marshal(second.Frontier)
	if !bytes.Equal(a, b) {
		t.Errorf("frontier differs across restart:\n%s\nvs\n%s", a, b)
	}
	if *second.Minimal != *first.Minimal {
		t.Errorf("inverse answer differs across restart: %+v vs %+v", second.Minimal, first.Minimal)
	}
}

// TestSweptPointCompilesNothing: /v1/frontier sweeps resolve through the
// same cache as /v1/run, so running any valid heuristic point of a swept
// surface compiles nothing, hits the cached artifact, and reproduces the
// surface's cycles — whatever its transfer latency.
func TestSweptPointCompilesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "source", "stencil.fgp"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"source": string(src),
		"grid":   map[string]any{"cores": []int{2, 4}, "queue_len": []int{4, 20}, "transfer_latency": []int64{1, 5, 20}},
	})
	code, fr, data := postFrontier(t, ts, string(body))
	if code != 200 {
		t.Fatalf("sweep: %d %s", code, data)
	}
	// The whole surface, from the cache the sweep filled.
	v, hit, err := s.run.Cache().Do(context.Background(), surfaceKind, fr.SurfaceAddress, nil)
	if err != nil || !hit {
		t.Fatalf("surface not cached: hit=%v err=%v", hit, err)
	}
	surf := v.(*machspace.Surface)

	before := s.Snapshot().Artifacts.Compiles
	ran := 0
	for _, p := range surf.Points {
		if !p.OK() {
			continue
		}
		q, lat := p.Point.QueueLen, p.Point.TransferLatency
		code, resp, errMsg := postRun(t, ts, RunRequest{Source: string(src), Cores: p.Point.Cores, QueueLen: &q, TransferLatency: &lat})
		if code != 200 {
			t.Fatalf("%s: %d %s", p.Point, code, errMsg)
		}
		if !resp.CachedArtifact {
			t.Errorf("%s: /v1/run missed the artifact its sweep compiled", p.Point)
		}
		if resp.Cycles != p.Cycles || resp.SeqCycles != p.SeqCycles {
			t.Errorf("%s: /v1/run %d/%d cycles, surface %d/%d", p.Point, resp.Cycles, resp.SeqCycles, p.Cycles, p.SeqCycles)
		}
		ran++
	}
	if ran < 6 {
		t.Fatalf("only %d of %d swept points were valid", ran, len(surf.Points))
	}
	if after := s.Snapshot().Artifacts.Compiles; after != before {
		t.Errorf("running %d swept points cost %d compiles, want 0", ran, after-before)
	}
}

// TestFrontierSearchPointMatchesRun: a searched sweep compiles each point
// for its own transfer latency, as /v1/run compiles a searched request, so
// each point of the surface reads the cycles /v1/run reads for the same
// levers, from the artifact the sweep compiled.
func TestFrontierSearchPointMatchesRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(FrontierRequest{Kernel: "lammps-2", Partitioner: "search",
		Grid: &machspace.Grid{Cores: []int{4}, TransferLatency: []int64{5, 50}}})
	code, fr, data := postFrontier(t, ts, string(body))
	if code != 200 {
		t.Fatalf("sweep: %d %s", code, data)
	}
	v, hit, err := s.run.Cache().Do(context.Background(), surfaceKind, fr.SurfaceAddress, nil)
	if err != nil || !hit {
		t.Fatalf("surface not cached: hit=%v err=%v", hit, err)
	}
	surf := v.(*machspace.Surface)
	if len(surf.Points) != 2 {
		t.Fatalf("swept %d points, want 2", len(surf.Points))
	}
	for _, p := range surf.Points {
		if !p.OK() {
			t.Fatalf("%s: rejected: %s", p.Point, p.Reject)
		}
		q, lat := p.Point.QueueLen, p.Point.TransferLatency
		code, resp, errMsg := postRun(t, ts, RunRequest{Kernel: "lammps-2", Cores: p.Point.Cores,
			QueueLen: &q, TransferLatency: &lat, Partitioner: "search"})
		if code != 200 {
			t.Fatalf("%s: %d %s", p.Point, code, errMsg)
		}
		if !resp.CachedArtifact {
			t.Errorf("%s: /v1/run missed the artifact its sweep compiled", p.Point)
		}
		if resp.Cycles != p.Cycles || resp.SeqCycles != p.SeqCycles {
			t.Errorf("%s: /v1/run %d/%d cycles, surface %d/%d", p.Point, resp.Cycles, resp.SeqCycles, p.Cycles, p.SeqCycles)
		}
	}
}

// TestMissAndSweepAnalyseOnce: on a fresh server a /v1/run miss (its
// baseline, profile and compile) and a /v1/frontier sweep over a 12-point
// grid (one profile, a compile per core count and queue length) each fill
// exactly one front, which every other fill of the loop reuses.
func TestMissAndSweepAnalyseOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "source", "stencil.fgp"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	if code, _, errMsg := postRun(t, ts, RunRequest{Source: string(src), Cores: 4}); code != 200 {
		t.Fatalf("miss: %d %s", code, errMsg)
	}
	if st := s.run.FrontStats(); st.Fills != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("a /v1/run miss: front cache %+v, want 1 fill, 1 miss, and 1 hit for the compile", st)
	}

	s, ts = newTestServer(t, Config{})
	body, _ := json.Marshal(FrontierRequest{Source: string(src),
		Grid: &machspace.Grid{Cores: []int{2, 4}, QueueLen: []int{4, 20}, TransferLatency: []int64{1, 5, 20}}})
	if code, fr, data := postFrontier(t, ts, string(body)); code != 200 || fr.Points != 12 {
		t.Fatalf("sweep: %d %s", code, data)
	}
	if st := s.run.FrontStats(); st.Fills != 1 || st.Misses != 1 || st.Hits != 4 {
		t.Errorf("a 12-point sweep: front cache %+v, want 1 fill, 1 miss, and 4 hits for the compiles", st)
	}
}

// TestAttributionAfterRunCompilesNothing: /v1/attribution resolves through
// the server's one runner, so it reuses what /v1/run compiled.
func TestAttributionAfterRunCompilesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, cores := range []int{1, 3} {
		if code, _, errMsg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: cores}); code != 200 {
			t.Fatalf("%d cores: %d %s", cores, code, errMsg)
		}
	}
	before := s.Snapshot().Artifacts.Compiles
	resp, err := http.Get(ts.URL + "/v1/attribution?kernel=sphot-1&cores=1,3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("attribution: %d", resp.StatusCode)
	}
	if after := s.Snapshot().Artifacts.Compiles; after != before {
		t.Errorf("attribution after /v1/run cost %d compiles, want 0", after-before)
	}
}
