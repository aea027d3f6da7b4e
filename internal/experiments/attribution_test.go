package experiments

import (
	"context"
	"os"
	"testing"

	"fgp/internal/obs"
)

const goldenAttributionPath = "testdata/golden_attribution.txt"

// TestGoldenAttribution pins the full formatted stall-attribution report of
// sphot-1 at 1 and 3 cores. Any compiler or simulator change that shifts
// where cycles are attributed — even with total cycles unchanged — fails
// this test. Regenerate after an intentional model change with:
//
//	go test ./internal/experiments -run TestGoldenAttribution -update
func TestGoldenAttribution(t *testing.T) {
	rows, err := Attribution(context.Background(), NewRunner(), "sphot-1", []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := FormatAttribution(rows)

	if *update {
		if err := os.WriteFile(goldenAttributionPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenAttributionPath)
		return
	}
	want, err := os.ReadFile(goldenAttributionPath)
	if err != nil {
		t.Fatalf("missing golden report (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("stall attribution drifted from the golden report.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Structural spot checks, independent of the golden file: the per-cause
	// stall totals must reconcile with the report's own core rows, and the
	// 3-core run must attribute real queue stalls.
	for _, row := range rows {
		tot := row.Report.StallTotals()
		var sum int64
		for i := range row.Report.Cores {
			for c := 0; c < int(obs.NumCauses); c++ {
				sum += row.Report.Cores[i].Stalls[c]
			}
		}
		var totSum int64
		for _, v := range tot {
			totSum += v
		}
		if sum != totSum {
			t.Errorf("%d cores: per-core stalls sum to %d, totals rows say %d", row.Cores, sum, totSum)
		}
	}
	if rows[1].Report.StallTotals()[obs.CauseDeqEmpty] == 0 {
		t.Error("3-core sphot-1 reports zero deq-empty stalls; the attribution lost its signal")
	}
}
