package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fgp/internal/kernels"
	"fgp/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden cycle table from the current simulator")

const goldenPath = "testdata/golden_cycles.json"

// goldenKey names one configuration of the golden table.
func goldenKey(kernel string, cores int, speculate bool) string {
	return fmt.Sprintf("%s/%dc/spec=%v", kernel, cores, speculate)
}

// goldenTable simulates every kernel at 2 and 4 cores with speculation off
// and on, and returns the cycle counts plus the sequential baselines.
func goldenTable(t *testing.T, r *Runner) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, k := range kernels.All() {
		seq, err := r.SeqCycles(k)
		if err != nil {
			t.Fatalf("%s: sequential: %v", k.Name, err)
		}
		got[k.Name+"/seq"] = seq
		for _, cores := range []int{2, 4} {
			for _, spec := range []bool{false, true} {
				_, res, _, err := r.Speedup(k, Variant{Cores: cores, Speculate: spec}, nil)
				if err != nil {
					t.Fatalf("%s (%d cores, spec=%v): %v", k.Name, cores, spec, err)
				}
				got[goldenKey(k.Name, cores, spec)] = res.Cycles
			}
		}
	}
	return got
}

// TestGoldenCycles pins the simulated cycle count of every kernel at 2 and
// 4 cores, with and without control-flow speculation, plus the sequential
// baselines — 18 kernels x 5 configurations. Any change to the compiler or
// either simulator engine that shifts simulated behavior fails this test;
// host-speed work must leave the table bit-identical. Regenerate after an
// intentional model change with:
//
//	go test ./internal/experiments -run TestGoldenCycles -update
func TestGoldenCycles(t *testing.T) {
	got := goldenTable(t, NewRunner())

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden table (run with -update to create it): %v", err)
	}
	want := map[string]int64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}

	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from current run", k)
		} else if g != want[k] {
			t.Errorf("%s: got %d cycles, golden table has %d", k, g, want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden table (regenerate with -update)", k)
		}
	}
}

// TestGoldenCyclesReference runs the same table on the reference engine:
// the golden file pins both engines to one shared truth.
func TestGoldenCyclesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference engine table is slow; skipped in -short mode")
	}
	r := NewRunner()
	r.SetEngine(sim.EngineReference)
	got := goldenTable(t, r)

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden table (run with -update to create it): %v", err)
	}
	want := map[string]int64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("table size mismatch: got %d entries, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; ok && g != w {
			t.Errorf("%s: reference engine got %d cycles, golden table has %d", k, g, w)
		}
	}
}
