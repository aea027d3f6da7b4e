package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fgp/internal/obs"
)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload and its traced run at a tiny scale and
// checks that each reports exactly the metrics BENCHMARK.json lists, with
// their units, and that nothing failed — including the replay's
// cross-check against the library.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	traceDir := t.TempDir()
	for _, w := range workloads {
		cfg := runConfig{seed: 7, seconds: 0.5, scale: 0.1, traceOut: filepath.Join(traceDir, w.name+".json")}
		for _, pass := range []struct {
			name string
			run  func(runConfig) *result
			want map[string]string
		}{{"end-to-end", w.run, e2e}, {"traced", w.trace, layers}} {
			r := pass.run(cfg)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d problems=%q", w.name, pass.name, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			got := map[string]string{}
			for _, m := range r.Metrics {
				got[m.Name] = m.Unit
			}
			for name, unit := range pass.want {
				if got[name] != unit {
					t.Errorf("%s %s: metric %s has unit %q, BENCHMARK.json says %q", w.name, pass.name, name, got[name], unit)
				}
			}
			if len(got) != len(pass.want) {
				t.Errorf("%s %s: %d metrics emitted, BENCHMARK.json lists %d", w.name, pass.name, len(got), len(pass.want))
			}
			if pass.name == "traced" {
				for _, m := range r.Metrics {
					if m.Name == "trace.coverage" && m.Value < 0.95 {
						t.Errorf("%s: trace.coverage %v below 0.95", w.name, m.Value)
					}
				}
			}
		}
		checkTraceFile(t, cfg.traceOut)
	}
}

// checkTraceFile re-parses an exported trace: valid trace-event JSON, and
// every span lies inside the span it names as its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePerfetto(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Parent int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	var spans []int // event index of span i
	for i, e := range tf.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, i)
		}
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, i := range spans {
		e := tf.TraceEvents[i]
		if e.Args.Parent < 0 {
			if e.Name != "op" {
				t.Errorf("%s: root span %q, want op", path, e.Name)
			}
			continue
		}
		p := tf.TraceEvents[spans[e.Args.Parent]]
		if e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+0.001 {
			t.Errorf("%s: span %q [%v,+%v] outside its parent %q [%v,+%v]", path, e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.75, 75}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := quantile([]float64{3, 7, 9}, 0.5); got != 7 {
		t.Errorf("median of {3,7,9} = %v, want 7", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, err := tailQuantile(xs, 0.9, minBeyond); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90 with exactly 10 beyond", v, err)
	}
	if _, err := tailQuantile(xs, 0.95, minBeyond); err == nil {
		t.Error("p95 of 100 samples leaves 5 beyond; want it refused")
	}
	for _, c := range []struct {
		q    float64
		want int
	}{{0.65, 29}, {0.75, 40}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		if got := samplesFor(c.q, minBeyond); got != c.want {
			t.Errorf("samplesFor(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestRegressedRelativePlusFloor(t *testing.T) {
	for _, c := range []struct {
		parent, child, bound, floor float64
		higherBetter, want          bool
	}{
		{1.0, 1.14, 0.1, 0.05, false, false}, // within 10% + 0.05
		{1.0, 1.16, 0.1, 0.05, false, true},
		{0.1, 0.14, 0.1, 0.05, false, false}, // the floor dominates small values
		{0.1, 0.17, 0.1, 0.05, false, true},
		{100, 91, 0.1, 0, true, false},
		{100, 89, 0.1, 0, true, true},
		{100, 150, 0.1, 0, true, false}, // better is never a regression
		{1.0, 0.5, 0.1, 0, false, false},
	} {
		if got := regressed(c.parent, c.child, c.bound, c.floor, c.higherBetter); got != c.want {
			t.Errorf("regressed(%v -> %v, bound %v, floor %v, higher better %v) = %v, want %v",
				c.parent, c.child, c.bound, c.floor, c.higherBetter, got, c.want)
		}
	}
}

// TestOpenLoopChargesFromDue: when the server serializes slow requests,
// later arrivals queue, and their latency counts from when they were due,
// not from when they got through.
func TestOpenLoopChargesFromDue(t *testing.T) {
	const n, service = 10, 20 * time.Millisecond
	var mu sync.Mutex
	arr := openLoop(200, n, n, func(int) {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(service)
	})
	for i, a := range arr {
		if a.dropped {
			t.Fatalf("arrival %d dropped with room for all", i)
		}
		if want := time.Duration(i) * 5 * time.Millisecond; a.due != want {
			t.Errorf("arrival %d due at %v, want %v", i, a.due, want)
		}
		if a.latency() != a.done-a.due || a.latency() < a.done-a.start {
			t.Errorf("arrival %d: latency %v is not measured from due (due %v, start %v, done %v)", i, a.latency(), a.due, a.start, a.done)
		}
	}
	// The last arrival waits for all ten services: done >= 200ms, due 45ms.
	if last := arr[n-1].latency(); last < n*service-45*time.Millisecond {
		t.Errorf("last arrival latency %v, want at least %v", last, n*service-45*time.Millisecond)
	}
}

// TestOpenLoopDropsPastOutstandingCap: with two arrivals stuck, the eight
// due in the next 8ms find no slot and are dropped, not delayed.
func TestOpenLoopDropsPastOutstandingCap(t *testing.T) {
	release := make(chan struct{})
	timer := time.AfterFunc(200*time.Millisecond, func() { close(release) })
	defer timer.Stop()
	arr := openLoop(1000, 10, 2, func(int) { <-release })
	dropped := 0
	for _, a := range arr {
		if a.dropped {
			dropped++
		}
	}
	if dropped != 8 || arr[0].dropped || arr[1].dropped {
		t.Errorf("dropped %d arrivals (first two dropped: %v %v), want the last 8", dropped, arr[0].dropped, arr[1].dropped)
	}
}

func TestBadInvocationsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "eval-hot"},
		{"--trace", "2"},
		{"--scale", "0"},
		{"--scale", "1.5"},
		{"--seconds", "-1"},
		{"--runs", "-1"},
		{"--seed", "x"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q on stdout", args, stdout.String())
		}
		if args[0] == "--workload" && !strings.Contains(stderr.String(), strings.Join(workloadNames(), ", ")) {
			t.Errorf("%q: stderr %q does not list the workloads", args, stderr.String())
		}
	}
}

// TestStolen: 10 ticks stolen while 90 ran make runnable work take 100/90
// as long; missing or backward readings leave times as measured.
func TestStolen(t *testing.T) {
	a, b := cpuTicks{run: 1000, steal: 50}, cpuTicks{run: 1090, steal: 60}
	for _, c := range []struct {
		a, b cpuTicks
		want float64
	}{
		{a, b, 100.0 / 90},
		{a, a, 1},
		{cpuTicks{}, b, 1},
		{b, a, 1},
	} {
		if got := stolen(c.a, c.b); got != c.want {
			t.Errorf("stolen(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if now := readCPUTicks(); runtime.GOOS == "linux" && !(now.run > 0) {
		t.Errorf("reading /proc/stat gave %+v", now)
	}
}

// TestSourcePoolGrowsOnDemand: a run that gets past the sources set-up
// built draws more, the same ones a larger set-up would have built.
func TestSourcePoolGrowsOnDemand(t *testing.T) {
	small, err := newSourcePool(3, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	big, err := newSourcePool(3, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i := 0; i < 40; i++ {
		s := small.at(i)
		if s.name != big.list[i].name || string(s.text) != string(big.list[i].text) {
			t.Fatalf("source %d: grown pool has %s, built pool %s", i, s.name, big.list[i].name)
		}
		if names[s.name] {
			t.Fatalf("source %d: %s repeats", i, s.name)
		}
		names[s.name] = true
	}
}

// TestServicePlansCoverTheirRuns: the plans set-up makes hold every request
// a run sends, however long the window.
func TestServicePlansCoverTheirRuns(t *testing.T) {
	for _, seconds := range []float64{0.5, 20, 90} {
		cfg := runConfig{seed: 1, seconds: seconds, scale: 1}
		open, closed := svcCounts(cfg, coldClosedPerSec)
		sent := 0
		for s := 0; s < svcSegments; s++ {
			burst := roundShare(closed, s)
			if burst < clientConns {
				t.Errorf("%gs: burst %d sends %d requests, fewer than the %d clients", seconds, s, burst, clientConns)
			}
			sent += roundShare(open, s) + burst
		}
		if sent != open+closed {
			t.Errorf("%gs: rounds send %d requests, the counts say %d", seconds, sent, open+closed)
		}
		if n := len(hotPlan(1, hotPairs(1), sent)); n != sent {
			t.Errorf("%gs: hot plan of %d requests, a run sends %d", seconds, n, sent)
		}
	}
	pool, err := newSourcePool(coldSeed(1), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	plan := coldPlan(1, pool, 30)
	if len(plan) < 30 {
		t.Fatalf("cold plan of %d requests, want 30", len(plan))
	}
	for i, req := range plan {
		if req.class == "swept" && (req.frontier >= i || plan[req.frontier].class != "frontier") {
			t.Errorf("swept request %d samples request %d, a %s", i, req.frontier, plan[req.frontier].class)
		}
	}
}
