// Command fgpload is the service-capacity regression harness: the fgpd
// analogue of cmd/fgpbench. It drives mixed traffic — cache hits on named
// kernels, cold compiles of unique inline IR, mid-flight client
// cancellations, and /v1/batch requests — against an in-process server (the
// default; hermetic and reproducible) or a remote daemon (-addr), and emits
// a latency-vs-offered-load curve into a machine-readable report
// (BENCH_service.json, committed at the repo root).
//
// Two load models, both reported:
//
//   - Closed loop: N workers each issue requests back to back. Throughput
//     at each concurrency level traces out the capacity curve; the peak is
//     the service's saturation throughput. Closed loops self-clock — when
//     the server slows down, offered load drops with it — so closed-loop
//     latency flatters the server.
//   - Open loop: requests arrive on a fixed schedule at a configured rate
//     whether or not earlier ones finished, like independent users. Latency
//     at a given offered rate includes queueing delay and is the number a
//     capacity plan should use; past saturation it grows without bound
//     (bounded here by admission control shedding 429s).
//
// Regenerate the committed report with:
//
//	go run ./cmd/fgpload -o BENCH_service.json
//
// -gate turns the run into a mechanical regression check against a
// committed report (nonzero exit when peak closed-loop throughput drops or
// per-point p99 regresses past the threshold), mirroring fgpbench -gate.
//
// A bad -mix, -closed or -open value exits 2 before any load runs and names
// the accepted classes or form.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"fgp/internal/ir"
	"fgp/internal/service"
)

// Point is one measured (load, latency) sample of the curve.
type Point struct {
	Mode        string  `json:"mode"`                  // "closed" or "open"
	Concurrency int     `json:"concurrency,omitempty"` // closed loop
	OfferedRPS  float64 `json:"offered_rps,omitempty"` // open loop
	AchievedRPS float64 `json:"achieved_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	Requests    int64   `json:"requests"`
	// Dropped counts open-loop arrivals shed client-side because the
	// outstanding-request cap was hit (the open loop's safety valve once
	// the server is past saturation).
	Dropped int64 `json:"dropped,omitempty"`
	// Status maps HTTP status ("200", "429", "499", ...) to a count; batch
	// item outcomes fold into the same keys, client-side aborts are "0".
	Status map[string]int64 `json:"status"`
	// CacheHitRate is the server's in-memory compile-cache hit rate over
	// this point's interval (from /metrics deltas).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Report is the BENCH_service.json schema.
type Report struct {
	Benchmark  string `json:"benchmark"`
	Target     string `json:"target"` // "in-process" or the -addr value
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	DurationMs int64  `json:"duration_ms_per_point"`

	// Mix is the offered traffic composition (fractions summing to 1).
	Mix map[string]float64 `json:"mix"`

	Closed []Point `json:"closed"`
	Open   []Point `json:"open"`

	// Headlines: saturation throughput of the closed loop and the p99
	// there, plus the open-loop p99 at roughly half of saturation (the
	// operating point a capacity plan would pick).
	PeakClosedRPS   float64 `json:"peak_closed_rps"`
	P99AtPeakMs     float64 `json:"p99_at_peak_ms"`
	OpenP99HalfMs   float64 `json:"open_p99_at_half_peak_ms"`
	OpenHalfPeakRPS float64 `json:"open_half_peak_rps"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgpload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "target an already-running fgpd (host:port); empty = in-process server")
	workers := fs.Int("workers", 0, "in-process server worker slots (0 = one per CPU)")
	queueDepth := fs.Int("queue-depth", 256, "in-process server queue depth before 429")
	storeDir := fs.String("store-dir", "", "in-process server artifact store directory (empty = memory-only)")
	duration := fs.Duration("duration", 2*time.Second, "measurement window per curve point")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "cache-priming mixed load before the first point")
	closedList := fs.String("closed", "1,2,4,8,16,32", "closed-loop concurrency levels")
	openList := fs.String("open", "", "open-loop offered rates in req/s (empty = 25%,50%,75%,100% of measured peak)")
	mixSpec := fs.String("mix", "hit=0.6,miss=0.15,cancel=0.1,batch=0.15", "traffic class weights")
	seed := fs.Int64("seed", 1, "RNG seed for class picks and unique-kernel generation")
	out := fs.String("o", "", "write the JSON report to this file (default stdout)")
	gate := fs.Float64("gate", 0, "fail (exit 1) when peak throughput or per-point p99 regresses by more than this fraction vs the -against report (0 disables)")
	against := fs.String("against", "BENCH_service.json", "committed report the -gate check compares against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgpload: "+format+"\n", args...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgpload:", err)
		return 1
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		return usage("-mix: %v", err)
	}
	levels, err := parseInts(*closedList)
	if err != nil {
		return usage("-closed: %v", err)
	}
	// Open loop: explicit rates, or (when empty) fractions of the measured
	// peak, filled in after the closed loop.
	var rates []float64
	if *openList != "" {
		ints, err := parseInts(*openList)
		if err != nil {
			return usage("-open: %v", err)
		}
		for _, r := range ints {
			rates = append(rates, float64(r))
		}
	}

	target := *addr
	rep := Report{
		Benchmark:  "fgpd-capacity",
		Target:     "in-process",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    *workers,
		QueueDepth: *queueDepth,
		DurationMs: duration.Milliseconds(),
		Mix:        mix,
	}
	if rep.Workers == 0 {
		rep.Workers = runtime.GOMAXPROCS(0)
	}

	// Resolve the target: remote daemon or a hermetic in-process server.
	if target == "" {
		svc, err := service.New(service.Config{
			Workers:    *workers,
			QueueDepth: *queueDepth,
			StoreDir:   *storeDir,
		})
		if err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		hs := &http.Server{Handler: svc.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		target = ln.Addr().String()
	} else {
		rep.Target = target
	}

	g := &generator{
		base:   "http://" + target,
		client: newClient(),
		mix:    mix,
		seed:   *seed,
	}
	if err := g.prime(*warmup); err != nil {
		return fail(fmt.Errorf("warmup: %w", err))
	}

	// Closed loop: concurrency sweep.
	for _, c := range levels {
		p := g.closedPoint(c, *duration)
		rep.Closed = append(rep.Closed, p)
		fmt.Fprintf(stderr, "fgpload: closed c=%-3d %8.1f req/s  p50 %6.2fms  p99 %7.2fms  p999 %7.2fms\n",
			c, p.AchievedRPS, p.P50Ms, p.P99Ms, p.P999Ms)
	}
	for _, p := range rep.Closed {
		if p.AchievedRPS > rep.PeakClosedRPS {
			rep.PeakClosedRPS = p.AchievedRPS
			rep.P99AtPeakMs = p.P99Ms
		}
	}

	if len(rates) == 0 {
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			r := rep.PeakClosedRPS * frac
			if r < 5 {
				r = 5
			}
			rates = append(rates, r)
		}
	}
	for _, r := range rates {
		p := g.openPoint(r, *duration)
		rep.Open = append(rep.Open, p)
		fmt.Fprintf(stderr, "fgpload: open  r=%-7.1f %8.1f req/s  p50 %6.2fms  p99 %7.2fms  p999 %7.2fms  dropped %d\n",
			p.OfferedRPS, p.AchievedRPS, p.P50Ms, p.P99Ms, p.P999Ms, p.Dropped)
	}
	// The half-peak operating point: the open point whose offered rate is
	// closest to 50% of peak closed throughput.
	if len(rep.Open) > 0 && rep.PeakClosedRPS > 0 {
		best := rep.Open[0]
		for _, p := range rep.Open[1:] {
			if math.Abs(p.OfferedRPS-rep.PeakClosedRPS/2) < math.Abs(best.OfferedRPS-rep.PeakClosedRPS/2) {
				best = p
			}
		}
		rep.OpenP99HalfMs = best.P99Ms
		rep.OpenHalfPeakRPS = best.OfferedRPS
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fail(err)
	}
	printTable(stderr, &rep)

	if *gate > 0 {
		if err := checkGate(&rep, *against, *gate); err != nil {
			fmt.Fprintln(stderr, "fgpload: GATE FAILED:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fgpload: gate passed (threshold %.0f%% vs %s)\n", *gate*100, *against)
	}
	return 0
}

// newClient builds an HTTP client that can hold a high-concurrency sweep's
// connections open (the default transport keeps only 2 idle per host, which
// turns a load test into a connection-churn test).
func newClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	}
	return &http.Client{Transport: tr}
}

// generator issues one mixed-traffic request stream.
type generator struct {
	base   string
	client *http.Client
	mix    map[string]float64
	seed   int64

	uniq atomic.Int64 // distinct content addresses for the miss class
}

// named kernels the hit class rotates over; primed during warmup.
var hitKernels = []string{"sphot-1", "irs-1", "umt2k-1"}

// sample is one completed request.
type sample struct {
	status  int // HTTP status, or 0 for a client-side abort
	latency time.Duration
	measure bool // false for cancel-class requests (their latency is the cancel timer)
}

// prime fills the caches the hit and cancel classes rely on, then runs a
// short mixed load so the first measured point does not pay one-time costs.
func (g *generator) prime(warmup time.Duration) error {
	for _, k := range hitKernels {
		if st, err := g.postRun(context.Background(), service.RunRequest{Kernel: k, Cores: 2}); err != nil || st != 200 {
			return fmt.Errorf("priming %s: status %d, err %v", k, st, err)
		}
	}
	// Compile (and fully run once) the long kernel the cancel class aborts.
	if st, err := g.postRun(context.Background(), service.RunRequest{IR: cancelKernelWire(), Cores: 2}); err != nil || st != 200 {
		return fmt.Errorf("priming cancel kernel: status %d, err %v", st, err)
	}
	if warmup > 0 {
		g.closedPoint(4, warmup)
	}
	return nil
}

// closedPoint runs c workers back to back for d and aggregates.
func (g *generator) closedPoint(c int, d time.Duration) Point {
	before := g.metrics()
	var (
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.seed + int64(w)*7919))
			var local []sample
			for time.Now().Before(deadline) {
				local = append(local, g.issue(rng))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := aggregate(samples, d)
	p.Mode, p.Concurrency = "closed", c
	p.CacheHitRate = hitRateDelta(before, g.metrics())
	return p
}

// openPoint issues arrivals on a fixed schedule at rate req/s for d,
// unbounded concurrency up to a client-side outstanding cap.
func (g *generator) openPoint(rate float64, d time.Duration) Point {
	const maxOutstanding = 2048
	before := g.metrics()
	var (
		mu          sync.Mutex
		samples     []sample
		outstanding atomic.Int64
		dropped     atomic.Int64
		wg          sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	rng := rand.New(rand.NewSource(g.seed * 31))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(d)
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		if outstanding.Load() >= maxOutstanding {
			dropped.Add(1)
			continue
		}
		outstanding.Add(1)
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			s := g.issue(rand.New(rand.NewSource(seed)))
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := aggregate(samples, d)
	p.Mode, p.OfferedRPS, p.Dropped = "open", rate, dropped.Load()
	p.CacheHitRate = hitRateDelta(before, g.metrics())
	return p
}

// issue sends one request of a mix-weighted random class.
func (g *generator) issue(rng *rand.Rand) sample {
	x := rng.Float64()
	for _, class := range []string{"hit", "miss", "cancel", "batch"} {
		x -= g.mix[class]
		if x >= 0 {
			continue
		}
		switch class {
		case "hit":
			return g.timed(func(ctx context.Context) (int, error) {
				return g.postRun(ctx, service.RunRequest{Kernel: hitKernels[rng.Intn(len(hitKernels))], Cores: 2})
			}, true)
		case "miss":
			wire := uniqueKernelWire(g.seed*1_000_003 + g.uniq.Add(1))
			return g.timed(func(ctx context.Context) (int, error) {
				return g.postRun(ctx, service.RunRequest{IR: wire, Cores: 2})
			}, true)
		case "cancel":
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(4))*time.Millisecond)
			st, err := g.postRun(ctx, service.RunRequest{IR: cancelKernelWire(), Cores: 2})
			cancel()
			if err != nil {
				st = 0 // aborted client-side, the expected outcome
			}
			return sample{status: st, measure: false}
		case "batch":
			return g.timedBatch(rng)
		}
	}
	// Weights that do not quite sum to 1 land here: default to a hit.
	return g.timed(func(ctx context.Context) (int, error) {
		return g.postRun(ctx, service.RunRequest{Kernel: hitKernels[0], Cores: 2})
	}, true)
}

func (g *generator) timed(f func(ctx context.Context) (int, error), measure bool) sample {
	start := time.Now()
	st, err := f(context.Background())
	if err != nil {
		st = 0
	}
	return sample{status: st, latency: time.Since(start), measure: measure}
}

// timedBatch posts a 4-item batch (3 hits + 1 unique miss) and folds the
// per-item statuses into the sample stream via its own status field: the
// batch's own latency is the joined stream, item outcomes are parsed from
// the NDJSON lines and returned through itemStatuses.
func (g *generator) timedBatch(rng *rand.Rand) sample {
	items := []service.RunRequest{
		{Kernel: hitKernels[rng.Intn(len(hitKernels))], Cores: 2},
		{Kernel: hitKernels[rng.Intn(len(hitKernels))], Cores: 2},
		{Kernel: hitKernels[rng.Intn(len(hitKernels))], Cores: 4},
		{IR: uniqueKernelWire(g.seed*2_000_003 + g.uniq.Add(1)), Cores: 2},
	}
	body, _ := json.Marshal(service.BatchRequest{Items: items})
	start := time.Now()
	resp, err := g.client.Post(g.base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{status: 0, latency: time.Since(start), measure: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return sample{status: resp.StatusCode, latency: time.Since(start), measure: true}
	}
	// Drain the stream; require the trailer so a truncated batch counts as
	// a failure, not a fast success.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	done := false
	for sc.Scan() {
		var trailer struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(sc.Bytes(), &trailer) == nil && trailer.Done {
			done = true
		}
	}
	st := resp.StatusCode
	if !done {
		st = 0
	}
	return sample{status: st, latency: time.Since(start), measure: true}
}

func (g *generator) postRun(ctx context.Context, req service.RunRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, "POST", g.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// metrics fetches the server's /metrics document (zero value on error —
// the hit-rate delta then reports 0, never fails the run).
func (g *generator) metrics() service.Metrics {
	var m service.Metrics
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return m
}

func hitRateDelta(before, after service.Metrics) float64 {
	hits := after.Cache.Hits - before.Cache.Hits
	total := hits + after.Cache.Misses - before.Cache.Misses
	if total <= 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// aggregate folds samples into a curve point.
func aggregate(samples []sample, d time.Duration) Point {
	p := Point{Status: map[string]int64{}}
	var lats []time.Duration
	for _, s := range samples {
		p.Requests++
		p.Status[strconv.Itoa(s.status)]++
		if s.measure {
			lats = append(lats, s.latency)
		}
	}
	p.AchievedRPS = float64(p.Requests) / d.Seconds()
	if len(lats) == 0 {
		return p
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(f float64) float64 {
		i := int(f*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i]) / float64(time.Millisecond)
	}
	p.P50Ms, p.P99Ms, p.P999Ms = q(0.50), q(0.99), q(0.999)
	return p
}

// checkGate compares a fresh report against the committed one: peak
// closed-loop throughput must not drop, and no matching curve point's p99
// may grow, past the allowed fraction. A 5ms absolute floor on the latency
// comparison keeps sub-millisecond points from flaking the gate on noise.
func checkGate(cur *Report, path string, allowed float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed report: %w", err)
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	var regressions []string
	if old.PeakClosedRPS > 0 && cur.PeakClosedRPS < old.PeakClosedRPS*(1-allowed) {
		regressions = append(regressions, fmt.Sprintf(
			"peak closed-loop throughput %.1f req/s vs committed %.1f (-%.0f%%, allowed %.0f%%)",
			cur.PeakClosedRPS, old.PeakClosedRPS,
			(1-cur.PeakClosedRPS/old.PeakClosedRPS)*100, allowed*100))
	}
	oldClosed := map[int]Point{}
	for _, p := range old.Closed {
		oldClosed[p.Concurrency] = p
	}
	const floorMs = 5.0
	for _, p := range cur.Closed {
		o, ok := oldClosed[p.Concurrency]
		if !ok || o.P99Ms <= 0 {
			continue
		}
		if p.P99Ms > o.P99Ms*(1+allowed)+floorMs {
			regressions = append(regressions, fmt.Sprintf(
				"closed c=%d: p99 %.2fms vs committed %.2fms (allowed +%.0f%% + %.0fms)",
				p.Concurrency, p.P99Ms, o.P99Ms, allowed*100, floorMs))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%s", strings.Join(regressions, "; "))
	}
	return nil
}

func printTable(w io.Writer, rep *Report) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tload\tachieved req/s\tp50\tp99\tp999\thit rate")
	for _, p := range append(append([]Point{}, rep.Closed...), rep.Open...) {
		load := fmt.Sprintf("c=%d", p.Concurrency)
		if p.Mode == "open" {
			load = fmt.Sprintf("r=%.0f/s", p.OfferedRPS)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.2fms\t%.2fms\t%.2fms\t%.2f\n",
			p.Mode, load, p.AchievedRPS, p.P50Ms, p.P99Ms, p.P999Ms, p.CacheHitRate)
	}
	tw.Flush()
	fmt.Fprintf(w, "peak closed-loop: %.1f req/s (p99 %.2fms); open-loop p99 at %.0f req/s: %.2fms\n",
		rep.PeakClosedRPS, rep.P99AtPeakMs, rep.OpenHalfPeakRPS, rep.OpenP99HalfMs)
}

// uniqueKernelWire builds a small kernel whose content address depends on
// seed (the array data feeds the canonical encoding), so every call with a
// fresh seed is a guaranteed compile-cache miss.
func uniqueKernelWire(seed int64) json.RawMessage {
	return buildKernelWire(seed, 64)
}

// cancelKernelWire is the long-running kernel the cancel class aborts
// mid-simulation: one fixed content address, compiled once during warmup.
func cancelKernelWire() json.RawMessage {
	return buildKernelWire(-1, 1_000_000)
}

func buildKernelWire(seed, trips int64) json.RawMessage {
	b := ir.NewBuilder("load", "i", 0, trips, 1)
	n := trips
	if n > 64 {
		n = 64
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(seed+int64(i))*0.5 + 1
	}
	b.ArrayF("a", data)
	b.ArrayF("o", make([]float64, n))
	s := b.ScalarF("scale", float64(seed%7)+0.5)
	idx := b.Def("j", ir.RemE(b.Idx(), ir.I(n)))
	x := b.Def("x", ir.MulE(ir.LDF("a", idx), s))
	b.Def("y", ir.AddE(ir.SqrtE(ir.AbsE(x)), ir.F(1)))
	b.StoreF("o", idx, b.T("y"))
	wire, err := ir.MarshalLoop(b.MustBuild())
	if err != nil {
		panic(err) // builder output always encodes
	}
	return wire
}

// parseMix reads -mix: class=weight entries, each class at most once, with
// finite weights >= 0 that sum to more than zero, normalized to sum to one.
func parseMix(spec string) (map[string]float64, error) {
	const classes = "hit, miss, cancel, batch"
	mix := map[string]float64{}
	total := 0.0
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not class=weight (classes: %s)", part, classes)
		}
		switch k {
		case "hit", "miss", "cancel", "batch":
		default:
			return nil, fmt.Errorf("unknown traffic class %q (have %s)", k, classes)
		}
		if _, dup := mix[k]; dup {
			return nil, fmt.Errorf("traffic class %q given twice", k)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("weight %q of %s: want a finite number >= 0", v, k)
		}
		mix[k] = f
		total += f
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return nil, fmt.Errorf("weights sum to %v; need a finite sum > 0", total)
	}
	for k := range mix {
		mix[k] /= total
	}
	return mix, nil
}

// parseInts reads a comma-separated list of positive integers.
func parseInts(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q: want a comma-separated list of positive integers", f)
		}
		out = append(out, n)
	}
	return out, nil
}
