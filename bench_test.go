package fgp

// One benchmark per table and figure of the paper's evaluation (Section V).
// Each benchmark times the simulator executing the compiled kernels (the
// wall-clock numbers measure this reproduction's own speed) and reports the
// paper's quantities — simulated speedup over the sequential baseline — as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every row the paper plots. cmd/fgpexp prints the same data as
// aligned tables with the paper's published values alongside.

import (
	"fmt"
	"testing"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// compileAll builds artifacts for every kernel at the given core count,
// fanning compilations out across the CPU so benchmark setup stays cheap.
func compileAll(b *testing.B, cores int, mod func(*core.Options)) map[string]*core.Artifact {
	b.Helper()
	ks := kernels.All()
	built := make([]*core.Artifact, len(ks))
	err := experiments.ParallelEach(len(ks), 0, func(i int) error {
		opt := core.DefaultOptions(cores)
		if mod != nil {
			mod(&opt)
		}
		a, err := core.Compile(ks[i].Build(), opt)
		if err != nil {
			return fmt.Errorf("%s: %w", ks[i].Name, err)
		}
		built[i] = a
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	arts := map[string]*core.Artifact{}
	for i, k := range ks {
		arts[k.Name] = built[i]
	}
	return arts
}

func seqCycles(b *testing.B) map[string]int64 {
	b.Helper()
	ks := kernels.All()
	cycles := make([]int64, len(ks))
	err := experiments.ParallelEach(len(ks), 0, func(i int) error {
		a, err := core.CompileSequential(ks[i].Build())
		if err != nil {
			return fmt.Errorf("%s: %w", ks[i].Name, err)
		}
		res, err := a.RunDefault()
		if err != nil {
			return fmt.Errorf("%s: %w", ks[i].Name, err)
		}
		cycles[i] = res.Cycles
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	out := map[string]int64{}
	for i, k := range ks {
		out[k.Name] = cycles[i]
	}
	return out
}

// BenchmarkFig12 regenerates Figure 12: per-kernel speedup on 2 and 4
// cores. Metrics: speedup (simulated), simMcycles (simulated cycles of the
// parallel run).
func BenchmarkFig12(b *testing.B) {
	for _, cores := range []int{2, 4} {
		cores := cores
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			seq := seqCycles(b)
			arts := compileAll(b, cores, nil)
			for _, k := range kernels.All() {
				k := k
				b.Run(k.Name, func(b *testing.B) {
					a := arts[k.Name]
					var cycles int64
					for i := 0; i < b.N; i++ {
						res, err := a.RunDefault()
						if err != nil {
							b.Fatal(err)
						}
						cycles = res.Cycles
					}
					b.ReportMetric(float64(seq[k.Name])/float64(cycles), "speedup")
					b.ReportMetric(float64(cycles)/1e6, "simMcycles")
				})
			}
		})
	}
}

// BenchmarkFig12Sweep times the whole Figure 12 sweep (18 kernels, compile
// and simulate at 1, 2, and 4 cores) end to end through the experiments
// Runner — the number cmd/fgpbench tracks for host-performance regressions.
// Sub-benchmarks cover the default threaded engine on a serial and a
// saturated worker pool plus the reference per-instruction scheduler.
func BenchmarkFig12Sweep(b *testing.B) {
	modes := []struct {
		name    string
		workers int
		engine  string
	}{
		{"threaded/parallel", 0, sim.EngineThreaded},
		{"threaded/serial", 1, sim.EngineThreaded},
		{"reference/serial", 1, sim.EngineReference},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner()
				r.SetWorkers(m.workers)
				r.SetEngine(m.engine)
				if _, err := experiments.Fig12(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates Table II: whole-application expected
// speedups (Amdahl combination of Fig 12 with Table I coverage). Each
// iteration uses a fresh runner, so it compiles and simulates rather than
// reading the previous iteration's memoized results.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table2(experiments.NewRunner())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.Speedup4, row.App+"_4c")
	}
}

// BenchmarkTable3 regenerates Table III's compiler statistics: the
// benchmark times compilation; per-kernel fibers/deps/comm are reported as
// metrics on sub-benchmarks.
func BenchmarkTable3(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var a *core.Artifact
			var err error
			for i := 0; i < b.N; i++ {
				a, err = core.Compile(k.Build(), core.DefaultOptions(4))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Report.InitialFibers), "fibers")
			b.ReportMetric(float64(a.Report.DataDeps), "deps")
			b.ReportMetric(a.Report.LoadBalance, "balance")
			b.ReportMetric(float64(a.Report.CommOps), "commOps")
		})
	}
}

// BenchmarkFig13 regenerates Figure 13: 4-core speedup as the queue
// transfer latency grows.
func BenchmarkFig13(b *testing.B) {
	seq := seqCycles(b)
	arts := compileAll(b, 4, nil)
	for _, lat := range []int64{5, 20, 50, 100} {
		lat := lat
		b.Run(fmt.Sprintf("latency%d", lat), func(b *testing.B) {
			for _, k := range kernels.All() {
				k := k
				b.Run(k.Name, func(b *testing.B) {
					a := arts[k.Name]
					cfg := a.MachineConfig()
					cfg.TransferLatency = lat
					var cycles int64
					for i := 0; i < b.N; i++ {
						res, err := a.Run(cfg)
						if err != nil {
							b.Fatal(err)
						}
						cycles = res.Cycles
					}
					b.ReportMetric(float64(seq[k.Name])/float64(cycles), "speedup")
				})
			}
		})
	}
}

// BenchmarkFig14 regenerates Figure 14: the effect of control-flow
// speculation at 4 cores.
func BenchmarkFig14(b *testing.B) {
	seq := seqCycles(b)
	base := compileAll(b, 4, nil)
	spec := compileAll(b, 4, func(o *core.Options) { o.Speculate = true })
	for _, k := range kernels.All() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var bc, sc int64
			for i := 0; i < b.N; i++ {
				bres, err := base[k.Name].RunDefault()
				if err != nil {
					b.Fatal(err)
				}
				sres, err := spec[k.Name].RunDefault()
				if err != nil {
					b.Fatal(err)
				}
				bc, sc = bres.Cycles, sres.Cycles
			}
			b.ReportMetric(float64(seq[k.Name])/float64(bc), "speedup")
			b.ReportMetric(float64(seq[k.Name])/float64(sc), "specSpeedup")
		})
	}
}

// BenchmarkThroughputAblation regenerates the Section III-B throughput
// (DAG-constraining) heuristic ablation.
func BenchmarkThroughputAblation(b *testing.B) {
	seq := seqCycles(b)
	base := compileAll(b, 4, nil)
	dag := compileAll(b, 4, func(o *core.Options) { o.Throughput = true })
	for _, k := range kernels.All() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var bc, dc int64
			for i := 0; i < b.N; i++ {
				bres, err := base[k.Name].RunDefault()
				if err != nil {
					b.Fatal(err)
				}
				dres, err := dag[k.Name].RunDefault()
				if err != nil {
					b.Fatal(err)
				}
				bc, dc = bres.Cycles, dres.Cycles
			}
			b.ReportMetric(float64(seq[k.Name])/float64(bc), "speedup")
			b.ReportMetric(float64(seq[k.Name])/float64(dc), "dagSpeedup")
		})
	}
}

// BenchmarkCompile times the full compiler pipeline (with profile feedback)
// for the largest kernel, a compile-speed regression guard.
func BenchmarkCompile(b *testing.B) {
	k, err := kernels.ByName("irs-5")
	if err != nil {
		b.Fatal(err)
	}
	l := k.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(l, core.DefaultOptions(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulator throughput (host ns per
// simulated instruction) on the heaviest kernel.
func BenchmarkSimulator(b *testing.B) {
	k, err := kernels.ByName("irs-1")
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Compile(k.Build(), core.DefaultOptions(4))
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.RunDefault()
		if err != nil {
			b.Fatal(err)
		}
		instrs = 0
		for _, n := range res.PerCoreInstrs {
			instrs += n
		}
	}
	b.ReportMetric(float64(instrs), "simInstrs")
}
