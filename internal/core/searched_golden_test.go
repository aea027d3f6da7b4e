package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"fgp/internal/ir"
	"fgp/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite the searched-artifact golden from the current compiler")

const goldenSearchedPath = "testdata/golden_searched.txt"

// searchedCase is one searched compile the golden pins.
type searchedCase struct {
	loop  *ir.Loop
	cores int
}

// searchedCases are the tier-1 kernels at 2 and 4 cores and 50 of the
// package's generated loops at 4 cores.
func searchedCases() []searchedCase {
	var cs []searchedCase
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			cs = append(cs, searchedCase{k.Build(), cores})
		}
	}
	for it := 0; it < 50; it++ {
		cs = append(cs, searchedCase{generate(uint64(it)*0x9e3779b97f4a7c15 + 424242), 4})
	}
	return cs
}

// searchedOptions is the searched compile the golden pins: the paper's
// default options, searched with budget 48 and seed 1 (fgpd's levers).
func searchedOptions(cores, workers int) Options {
	opt := DefaultOptions(cores)
	opt.Partitioner = PartitionerSearch
	opt.SearchBudget = 48
	opt.SearchSeed = 1
	opt.SearchWorkers = workers
	return opt
}

// formatSearched renders one searched artifact: its Report and a sha256
// of each program's disassembly.
func formatSearched(sb *strings.Builder, a *Artifact) {
	fmt.Fprintf(sb, "%s cores=%d %+v\n", a.Loop.Name, a.Report.Cores, a.Report)
	for _, p := range a.Compiled.Programs {
		fmt.Fprintf(sb, "  core %d sha256 %x\n", p.Core, sha256.Sum256([]byte(p.Disasm())))
	}
}

// TestSearchedArtifactsGolden pins every searched artifact byte for byte:
// its Report (cycles, candidates, partition statistics) and each program's
// disassembly, for every case of searchedCases, with the search run at
// SearchWorkers 0 (one per CPU) and 1, each a subtest. golden_search.txt
// in internal/experiments pins only cycles and candidate counts; this
// golden also catches a change in which partition wins or in the programs
// built from it.
// Regenerate after an intentional compiler, simulator or search change with:
//
//	go test ./internal/core -run TestSearchedArtifactsGolden -update
func TestSearchedArtifactsGolden(t *testing.T) {
	cases := searchedCases()
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var sb strings.Builder
			for _, c := range cases {
				a, err := Compile(c.loop, searchedOptions(c.cores, workers))
				if err != nil {
					t.Fatalf("%s/%d cores: %v", c.loop.Name, c.cores, err)
				}
				formatSearched(&sb, a)
			}
			got := sb.String()
			if *update && workers == 0 {
				if err := os.WriteFile(goldenSearchedPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d artifacts)", goldenSearchedPath, len(cases))
				return
			}
			want, err := os.ReadFile(goldenSearchedPath)
			if err != nil {
				t.Fatalf("reading %s (run with -update to create it): %v", goldenSearchedPath, err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s drifted at line %d (regenerate with -update if intended):\n got: %s\nwant: %s",
							goldenSearchedPath, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s drifted: %d lines, want %d", goldenSearchedPath, len(gl), len(wl))
			}
		})
	}
}
