package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const goldenCyclesPath = "internal/experiments/testdata/golden_cycles.json"

// loadGolden reads the committed cycle table: every kernel's sequential
// cycles and its cycles at 2 and 4 cores with speculation off and on.
func loadGolden() (map[string]int64, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, goldenCyclesPath))
	if err != nil {
		return nil, err
	}
	g := map[string]int64{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenCyclesPath, err)
	}
	return g, nil
}

func goldenKey(kernel string, cores int, speculate bool) string {
	return fmt.Sprintf("%s/%dc/spec=%v", kernel, cores, speculate)
}

// timeSetup runs setup reps times and returns the median repetition's time
// with the CPU time stolen during the set-ups taken out (see stolen). Each
// repetition must redo the whole set-up, so that work moved into set-up
// shows in setup_s.
func timeSetup(r *result, reps int, setup func() error) (float64, error) {
	var ds []float64
	from := readCPUTicks()
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	f := stolen(from, readCPUTicks())
	r.note("set-up repetitions took %.3f s (wall clock), with %.1f%% of their runnable CPU time stolen", ds, 100*(1-1/f))
	return median(ds) / f, nil
}

// endToEnd adds the end-to-end metrics every workload reports: set-up
// time, the median and tail operation latency, throughput and peak
// memory. It takes wall-clock numbers, except setupS (see timeSetup), and
// the measured window's steal factor f (see stolen), and reports the
// numbers with the stolen CPU time taken out, noting the wall-clock ones
// alongside.
func (r *result) endToEnd(f, setupS float64, lats []time.Duration, q float64, beyond int, opsPerS float64) {
	r.add("setup_s", setupS, "s")
	ref := make([]time.Duration, len(lats))
	for i, d := range lats {
		ref[i] = time.Duration(float64(d) / f)
	}
	sum, err := summarize(ref, q, beyond)
	if err != nil {
		r.fail("latency: %v", err)
	} else {
		r.add("p50_ms", sum.P50Ms, "ms")
		r.add("tail_ms", sum.TailMs, "ms")
		r.note("tail_ms is p%g over %d operations", q*100, sum.N)
	}
	r.add("ops_per_s", opsPerS*f, "1/s")
	r.add("max_rss_mb", maxRSSMB(), "MB")
	if err == nil {
		r.note("wall clock: p50 %.3f ms, tail %.3f ms, %.3f ops/s, with %.1f%% of the window's runnable CPU time stolen",
			sum.P50Ms*f, sum.TailMs*f, opsPerS, 100*(1-1/f))
	}
}

// serialLoop runs op back to back for the configured window, and past it
// until the tail percentile has enough samples (bounded at one more
// minute). op times its own measured section and checks its outputs after
// it. serialLoop returns the latencies of the operations that succeeded
// and their total.
func serialLoop(r *result, cfg runConfig, q float64, op func(i int) (time.Duration, error)) (lats []time.Duration, busy time.Duration) {
	need := samplesFor(q, cfg.beyond())
	start := time.Now()
	deadline, hardStop := start.Add(cfg.window()), start.Add(cfg.window()+time.Minute)
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(deadline) && (len(lats) >= need || !now.Before(hardStop)) {
			break
		}
		r.Attempted++
		d, err := op(i)
		if err != nil {
			r.fail("operation %d: %v", i, err)
			continue
		}
		lats = append(lats, d)
		busy += d
	}
	return lats, busy
}

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
