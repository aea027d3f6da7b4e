package experiments

import (
	"fmt"
	"strings"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// Fig12Row is one bar pair of Figure 12: speedup of fine-grained parallel
// code over sequential code, on 2 and 4 cores.
type Fig12Row struct {
	Name         string
	SeqCycles    int64
	Speedup2     float64
	Speedup4     float64
	PaperSpeedup float64 // Table III's 4-core value
}

// Fig12 regenerates Figure 12. The 2- and 4-core variants of every kernel
// fan out across the runner's worker pool; rows come back in kernel order.
func Fig12(r *Runner) ([]Fig12Row, error) {
	ks := kernels.All()
	rows := make([]Fig12Row, len(ks))
	// Two work items per kernel so a slow 4-core compile does not serialize
	// behind its own kernel's 2-core run.
	err := r.each(2*len(ks), func(i int) error {
		k, cores := ks[i/2], 2+2*(i%2)
		sp, _, _, err := r.Speedup(k, Variant{Cores: cores}, nil)
		if err != nil {
			return fmt.Errorf("fig12: %s at %d cores: %w", k.Name, cores, err)
		}
		seq, err := r.SeqCycles(k)
		if err != nil {
			return fmt.Errorf("fig12: %s: sequential baseline: %w", k.Name, err)
		}
		// The two items of one kernel write disjoint fields of the row.
		row := &rows[i/2]
		if cores == 2 {
			row.Name, row.SeqCycles, row.PaperSpeedup = k.Name, seq, k.PaperSpeedup
			row.Speedup2 = sp
		} else {
			row.Speedup4 = sp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig12 renders the figure as a text table.
func FormatFig12(rows []Fig12Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 12: speedup of fine-grained parallel code over sequential code\n")
	sb.WriteString(fmt.Sprintf("%-10s %12s %8s %8s %10s\n", "kernel", "seq cycles", "2-core", "4-core", "paper(4c)"))
	var a2, a4, ap float64
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-10s %12d %8.2f %8.2f %10.2f\n", r.Name, r.SeqCycles, r.Speedup2, r.Speedup4, r.PaperSpeedup))
		a2 += r.Speedup2
		a4 += r.Speedup4
		ap += r.PaperSpeedup
	}
	n := float64(len(rows))
	sb.WriteString(fmt.Sprintf("%-10s %12s %8.2f %8.2f %10.2f\n", "average", "", a2/n, a4/n, ap/n))
	sb.WriteString("paper averages: 2-core 1.32, 4-core 2.05\n")
	return sb.String()
}

// Fig13Row is one line of Figure 13: 4-core speedup as the queue transfer
// latency grows (the paper plots the degradation at 20 and 50 cycles and
// discusses 100 in the text).
type Fig13Row struct {
	Name     string
	Speedups []float64 // one per latency
}

// Fig13 regenerates Figure 13 for the given latencies (paper: 5, 20, 50,
// 100) over the full Table I registry.
func Fig13(r *Runner, latencies []int64) ([]Fig13Row, error) {
	return Fig13Kernels(r, kernels.All(), latencies)
}

// Fig13Kernels runs the latency sweep over an explicit kernel list. The
// full kernel×latency grid is one flat work list; all latency points of a
// kernel share its compiled artifact through the runner cache. A failing
// point fails the sweep with the offending (kernel, latency) pair named —
// the lowest-index point, deterministically, regardless of the worker
// count (ParallelEach).
func Fig13Kernels(r *Runner, ks []*kernels.Kernel, latencies []int64) ([]Fig13Row, error) {
	rows := make([]Fig13Row, len(ks))
	for i, k := range ks {
		rows[i] = Fig13Row{Name: k.Name, Speedups: make([]float64, len(latencies))}
	}
	err := r.each(len(ks)*len(latencies), func(i int) error {
		ki, li := i/len(latencies), i%len(latencies)
		lat := latencies[li]
		sp, _, _, err := r.Speedup(ks[ki], Variant{Cores: 4}, func(c *sim.Config) { c.TransferLatency = lat })
		if err != nil {
			return fmt.Errorf("fig13: %s at latency %d: %w", ks[ki].Name, lat, err)
		}
		rows[ki].Speedups[li] = sp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig13 renders the latency sweep.
func FormatFig13(rows []Fig13Row, latencies []int64) string {
	var sb strings.Builder
	sb.WriteString("Fig 13: 4-core speedup vs queue transfer latency\n")
	sb.WriteString(fmt.Sprintf("%-10s", "kernel"))
	for _, l := range latencies {
		sb.WriteString(fmt.Sprintf(" %7s", fmt.Sprintf("L=%d", l)))
	}
	sb.WriteString("\n")
	avgs := make([]float64, len(latencies))
	noSpeedup := make([]int, len(latencies))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-10s", r.Name))
		for i, s := range r.Speedups {
			sb.WriteString(fmt.Sprintf(" %7.2f", s))
			avgs[i] += s / float64(len(rows))
			if s <= 1.0 {
				noSpeedup[i]++
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString(fmt.Sprintf("%-10s", "average"))
	for _, a := range avgs {
		sb.WriteString(fmt.Sprintf(" %7.2f", a))
	}
	sb.WriteString("\n")
	sb.WriteString(fmt.Sprintf("%-10s", "no-speedup"))
	for _, n := range noSpeedup {
		sb.WriteString(fmt.Sprintf(" %7d", n))
	}
	sb.WriteString("\npaper: avg 2.05 / 1.85 / 1.36 / ~1.0; no-speedup counts 1 / 4 / 6 / 16\n")
	return sb.String()
}

// Fig14Row is one bar pair of Figure 14: the effect of control-flow
// speculation on the 4-core speedup.
type Fig14Row struct {
	Name          string
	Base          float64
	Speculated    float64
	SpeculatedIfs int
}

// Fig14 regenerates Figure 14, one worker item per kernel.
func Fig14(r *Runner) ([]Fig14Row, error) {
	return variantRows(r, Variant{Cores: 4, Speculate: true}, func(k *kernels.Kernel, base, spec float64, _, as *core.Artifact) Fig14Row {
		return Fig14Row{Name: k.Name, Base: base, Speculated: spec, SpeculatedIfs: as.Report.SpeculatedIfs}
	})
}

// FormatFig14 renders the speculation comparison.
func FormatFig14(rows []Fig14Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 14: effect of control-flow speculation (4 cores)\n")
	sb.WriteString(fmt.Sprintf("%-10s %8s %8s %8s %6s\n", "kernel", "base", "spec", "ratio", "#ifs"))
	var ab, as float64
	improved := 0
	for _, r := range rows {
		ratio := r.Speculated / r.Base
		sb.WriteString(fmt.Sprintf("%-10s %8.2f %8.2f %8.2f %6d\n", r.Name, r.Base, r.Speculated, ratio, r.SpeculatedIfs))
		ab += r.Base / float64(len(rows))
		as += r.Speculated / float64(len(rows))
		if ratio > 1.02 {
			improved++
		}
	}
	sb.WriteString(fmt.Sprintf("average %.2f -> %.2f (%d kernels improved)\n", ab, as, improved))
	sb.WriteString("paper: 8 kernels improved, average 2.05 -> 2.33 (+28% on the improved set)\n")
	return sb.String()
}
