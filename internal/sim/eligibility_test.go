package sim_test

import (
	"fmt"
	"testing"

	"fgp/internal/core"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/sim"
)

// TestThreadedTranslatesEveryCompiledProgram pins the threaded engine's
// eligibility: every program core.Compile emits must translate. A machine
// with a refused core runs on the reference scheduler and gives the same
// result, so only this test notices when compiler output falls off the
// fast engine. One-core compiles stand in for the profiling run.
func TestThreadedTranslatesEveryCompiledProgram(t *testing.T) {
	check := func(t *testing.T, label string, l *ir.Loop, opt core.Options) {
		t.Helper()
		a, err := core.Compile(l, opt)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}
		cost := a.MachineConfig().Cost
		for i, p := range a.Compiled.Programs {
			if reason := sim.TranslationRefusal(p, cost); reason != "" {
				t.Errorf("%s: core %d refused: %s", label, i, reason)
			}
		}
	}
	t.Run("tier1", func(t *testing.T) {
		t.Parallel()
		for _, k := range kernels.All() {
			for _, cores := range []int{1, 2, 4, 16} {
				for _, spec := range []bool{false, true} {
					for _, norm := range []int{0, 4} {
						opt := core.DefaultOptions(cores)
						opt.Speculate, opt.NormalizeOps = spec, norm
						check(t, fmt.Sprintf("%s/%dcore/spec=%v/norm=%d", k.Name, cores, spec, norm), k.Build(), opt)
					}
				}
			}
		}
	})
	t.Run("tier2", func(t *testing.T) {
		t.Parallel()
		ks, err := tier2.All()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			l, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, cores := range []int{1, 2, 4} {
				check(t, fmt.Sprintf("%s/%dcore", k.Name, cores), l, core.DefaultOptions(cores))
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		for seed := uint64(1); seed <= 100; seed++ {
			l := fuzz.Generate(seed, fuzz.GenConfig{MaxStmts: 24, MaxDepth: 4})
			for _, cores := range []int{1, 2, 4} {
				check(t, fmt.Sprintf("seed %d/%dcore", seed, cores), l, core.DefaultOptions(cores))
			}
		}
	})
}
