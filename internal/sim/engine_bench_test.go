package sim_test

import (
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// BenchmarkEngines times one warm simulation of every kernel at 4 cores per
// engine — the pure engine-throughput comparison the sweep-level numbers in
// BENCH_sim.json aggregate.
func BenchmarkEngines(b *testing.B) {
	var arts []*core.Artifact
	for _, k := range kernels.All() {
		a, err := core.Compile(k.Build(), core.DefaultOptions(4))
		if err != nil {
			b.Fatal(err)
		}
		arts = append(arts, a)
	}
	for _, engine := range sim.Engines() {
		b.Run(engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, a := range arts {
					cfg := a.MachineConfig()
					cfg.Engine = engine
					if _, err := a.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEnginesSequential times the 1-core compilations (the speedup
// baselines and the profiling machines): no queues and no horizon, so the
// pick granularity is the whole program — the threaded engine's best case.
func BenchmarkEnginesSequential(b *testing.B) {
	var arts []*core.Artifact
	for _, k := range kernels.All() {
		a, err := core.CompileSequential(k.Build())
		if err != nil {
			b.Fatal(err)
		}
		arts = append(arts, a)
	}
	for _, engine := range sim.Engines() {
		b.Run(engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, a := range arts {
					cfg := a.MachineConfig()
					cfg.Engine = engine
					if _, err := a.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
