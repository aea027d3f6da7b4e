package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckGate(t *testing.T) {
	committed := Report{
		PeakClosedRPS: 1000,
		Closed: []Point{
			{Mode: "closed", Concurrency: 4, P99Ms: 20},
			{Mode: "closed", Concurrency: 16, P99Ms: 40},
		},
	}
	path := writeReport(t, committed)

	t.Run("within threshold passes", func(t *testing.T) {
		cur := Report{
			PeakClosedRPS: 950, // -5%, allowed 25%
			Closed: []Point{
				{Mode: "closed", Concurrency: 4, P99Ms: 24},  // +20% < 25% + floor
				{Mode: "closed", Concurrency: 16, P99Ms: 40}, // flat
				{Mode: "closed", Concurrency: 64, P99Ms: 99}, // no committed twin: ignored
			},
		}
		if err := checkGate(&cur, path, 0.25); err != nil {
			t.Fatalf("gate failed on an in-threshold run: %v", err)
		}
	})
	t.Run("throughput collapse fails", func(t *testing.T) {
		cur := Report{PeakClosedRPS: 500}
		err := checkGate(&cur, path, 0.25)
		if err == nil || !strings.Contains(err.Error(), "peak closed-loop throughput") {
			t.Fatalf("err = %v, want peak-throughput regression", err)
		}
	})
	t.Run("p99 blowup fails", func(t *testing.T) {
		cur := Report{
			PeakClosedRPS: 1000,
			Closed:        []Point{{Mode: "closed", Concurrency: 16, P99Ms: 200}},
		}
		err := checkGate(&cur, path, 0.25)
		if err == nil || !strings.Contains(err.Error(), "c=16") {
			t.Fatalf("err = %v, want c=16 p99 regression", err)
		}
	})
	t.Run("absolute floor absorbs microsecond noise", func(t *testing.T) {
		tiny := writeReport(t, Report{
			PeakClosedRPS: 1000,
			Closed:        []Point{{Mode: "closed", Concurrency: 1, P99Ms: 0.2}},
		})
		cur := Report{
			PeakClosedRPS: 1000,
			// 10x in relative terms, but under the 5ms absolute floor.
			Closed: []Point{{Mode: "closed", Concurrency: 1, P99Ms: 2.0}},
		}
		if err := checkGate(&cur, tiny, 0.25); err != nil {
			t.Fatalf("gate flaked on sub-floor noise: %v", err)
		}
	})
	t.Run("missing committed report fails loudly", func(t *testing.T) {
		cur := Report{PeakClosedRPS: 1000}
		if err := checkGate(&cur, filepath.Join(t.TempDir(), "nope.json"), 0.25); err == nil {
			t.Fatal("gate passed with no committed report to compare against")
		}
	})
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("hit=3,miss=1")
	if err != nil {
		t.Fatal(err)
	}
	if mix["hit"] != 0.75 || mix["miss"] != 0.25 {
		t.Errorf("weights not normalized: %v", mix)
	}
	for _, bad := range []string{"", "hit", "hit=x", "warp=1", "hit=0",
		"hit=NaN", "hit=Inf", "hit=+Inf", "hit=-Inf", "miss=NaN,hit=1", "hit=1e308,miss=1e308",
		"miss=1,miss=1,hit=1", "hit=0,hit=1"} {
		if mix, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted: %v", bad, mix)
		}
	}
	if _, err := parseMix("warp=1"); err == nil || !strings.Contains(err.Error(), "hit, miss, cancel, batch") {
		t.Errorf("unknown class error %v does not name the accepted classes", err)
	}
}

// TestRunBadFlagValues: a bad -mix, -closed or -open value exits 2 before
// any load runs, and says what it accepts.
func TestRunBadFlagValues(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mix", "hit=NaN"}, "finite"},
		{[]string{"-mix", "miss=1,miss=1,hit=1"}, "twice"},
		{[]string{"-mix", "warp=1"}, "hit, miss, cancel, batch"},
		{[]string{"-closed", "4,x"}, "positive integers"},
		{[]string{"-closed", "0"}, "positive integers"},
		{[]string{"-open", "-5"}, "positive integers"},
		{[]string{"-no-such-flag"}, "not defined"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%q) stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
	}
}

func TestUniqueKernelWireIsUnique(t *testing.T) {
	a, b := uniqueKernelWire(1), uniqueKernelWire(2)
	if string(a) == string(b) {
		t.Fatal("different seeds produced identical wire encodings (cache misses would be hits)")
	}
	if string(cancelKernelWire()) != string(cancelKernelWire()) {
		t.Fatal("cancel kernel wire is not stable (each cancel would cost a compile)")
	}
}

func TestAggregateQuantiles(t *testing.T) {
	var samples []sample
	for i := 1; i <= 1000; i++ {
		samples = append(samples, sample{status: 200, latency: time.Duration(i) * time.Millisecond, measure: true})
	}
	samples = append(samples, sample{status: 0, latency: time.Hour, measure: false}) // cancel-class: excluded
	p := aggregate(samples, 10*time.Second)
	if p.Requests != 1001 || p.Status["200"] != 1000 || p.Status["0"] != 1 {
		t.Errorf("counts wrong: %+v", p)
	}
	if p.P50Ms != 500 || p.P99Ms != 990 || p.P999Ms != 999 {
		t.Errorf("quantiles p50=%v p99=%v p999=%v, want 500/990/999", p.P50Ms, p.P99Ms, p.P999Ms)
	}
}
