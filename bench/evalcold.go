package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/mem"
	"fgp/internal/profile"
	"fgp/internal/sim"
)

// evalTailQ: an evaluation takes about 0.7 s, so a 20-second window holds
// about 29 of them, and p65 is the highest percentile with enough samples
// beyond it; p75 would need 40, stretching every run by about 8 seconds.
const evalTailQ = 0.65

var (
	evalLatencies = []int64{5, 20, 50, 100}
	evalQueueLens = []int{2, 4, 8, 20, 64}
)

// evaluation is one run of the paper's evaluation: its formatted report
// and the rows checked against the golden cycle table.
type evaluation struct {
	text  string
	fig12 []experiments.Fig12Row
	fig14 []experiments.Fig14Row
}

// evaluate runs the evaluation once on a fresh runner with two workers:
// Table II, Table III, Fig 12, Fig 13, Fig 14 and the Section III-B
// ablations, as fgpexp does.
func evaluate() (*evaluation, error) {
	r := experiments.NewRunner()
	r.SetWorkers(2)
	var sb strings.Builder
	ev := &evaluation{}
	t2, err := experiments.Table2(r)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	sb.WriteString(experiments.FormatTable2(t2))
	t3, err := experiments.Table3(r)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	sb.WriteString(experiments.FormatTable3(t3))
	if ev.fig12, err = experiments.Fig12(r); err != nil {
		return nil, fmt.Errorf("fig12: %w", err)
	}
	sb.WriteString(experiments.FormatFig12(ev.fig12))
	f13, err := experiments.Fig13(r, evalLatencies)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	sb.WriteString(experiments.FormatFig13(f13, evalLatencies))
	if ev.fig14, err = experiments.Fig14(r); err != nil {
		return nil, fmt.Errorf("fig14: %w", err)
	}
	sb.WriteString(experiments.FormatFig14(ev.fig14))
	thr, err := experiments.Throughput(r)
	if err != nil {
		return nil, fmt.Errorf("throughput: %w", err)
	}
	sb.WriteString(experiments.FormatThroughput(thr))
	mp, err := experiments.MultiPair(r)
	if err != nil {
		return nil, fmt.Errorf("multipair: %w", err)
	}
	sb.WriteString(experiments.FormatMultiPair(mp))
	sched, err := experiments.Schedule(r)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	sb.WriteString(experiments.FormatSchedule(sched))
	norm, err := experiments.Normalize(r)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	sb.WriteString(experiments.FormatNormalize(norm))
	ql, err := experiments.QueueLen(r, evalQueueLens)
	if err != nil {
		return nil, fmt.Errorf("queuelen: %w", err)
	}
	sb.WriteString(experiments.FormatQueueLen(ql, evalQueueLens))
	ev.text = sb.String()
	return ev, nil
}

// checkGolden requires the Fig 12 and Fig 14 speedups to be exactly the
// golden sequential cycles over the golden parallel cycles.
func (ev *evaluation) checkGolden(g map[string]int64) error {
	same := func(what string, got float64, seq int64, key string) error {
		cy, ok := g[key]
		if !ok {
			return fmt.Errorf("%s: %s missing from the golden table", what, key)
		}
		if want := float64(seq) / float64(cy); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s: speedup %v, golden cycles give %v", what, got, want)
		}
		return nil
	}
	for _, row := range ev.fig12 {
		seq := g[row.Name+"/seq"]
		if row.SeqCycles != seq {
			return fmt.Errorf("fig12 %s: %d sequential cycles, golden %d", row.Name, row.SeqCycles, seq)
		}
		if err := same("fig12 "+row.Name+" 2c", row.Speedup2, seq, goldenKey(row.Name, 2, false)); err != nil {
			return err
		}
		if err := same("fig12 "+row.Name+" 4c", row.Speedup4, seq, goldenKey(row.Name, 4, false)); err != nil {
			return err
		}
	}
	for _, row := range ev.fig14 {
		seq := g[row.Name+"/seq"]
		if err := same("fig14 "+row.Name+" base", row.Base, seq, goldenKey(row.Name, 4, false)); err != nil {
			return err
		}
		if err := same("fig14 "+row.Name+" spec", row.Speculated, seq, goldenKey(row.Name, 4, true)); err != nil {
			return err
		}
	}
	if len(ev.fig12) != len(kernels.All()) || len(ev.fig14) != len(kernels.All()) {
		return fmt.Errorf("evaluation covers %d/%d kernels, want %d", len(ev.fig12), len(ev.fig14), len(kernels.All()))
	}
	return nil
}

func runEvalCold(cfg runConfig) *result {
	r := &result{Workload: "eval-cold", Host: fingerprint(cfg)}
	defer r.finish()
	var golden map[string]int64
	var first string
	setupS, err := timeSetup(r, cfg.reps(), func() error {
		var err error
		if golden, err = loadGolden(); err != nil {
			return err
		}
		ev, err := evaluate()
		if err != nil {
			return err
		}
		first = ev.text
		return ev.checkGolden(golden)
	})
	if err != nil {
		r.Attempted++
		r.fail("%v", err)
		return r
	}
	from := readCPUTicks()
	ops, busy := serialLoop(r, cfg, evalTailQ, func(i int) (time.Duration, error) {
		start := time.Now()
		ev, err := evaluate()
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if ev.text != first {
			return d, fmt.Errorf("evaluation report differs from the set-up run's")
		}
		return d, ev.checkGolden(golden)
	})
	r.endToEnd(stolen(from, readCPUTicks()), setupS, ops, evalTailQ, cfg.beyond(), perSecond(len(ops), busy))
	return r
}

// evalVariant is one compiled variant of a kernel in the evaluation and the
// simulations the evaluation runs on it: -1 is the compile-time machine,
// other values override the transfer latency (Fig 13).
type evalVariant struct {
	v    experiments.Variant
	runs []int64
}

// evalPlan lists, per kernel, every artifact the evaluation compiles and
// every simulation it runs on it (Table II repeats Fig 12's runs).
var evalPlan = func() []evalVariant {
	base := []int64{-1, -1, -1, -1, -1, -1, -1, -1} // table2, fig12, table3, fig14, 4 ablations
	plan := []evalVariant{
		{experiments.Variant{Cores: 2}, []int64{-1, -1}},
		{experiments.Variant{Cores: 4}, append(base, evalLatencies...)},
		{experiments.Variant{Cores: 4, Speculate: true}, []int64{-1}},
		{experiments.Variant{Cores: 4, Throughput: true}, []int64{-1}},
		{experiments.Variant{Cores: 4, MultiPair: true}, []int64{-1}},
		{experiments.Variant{Cores: 4, Schedule: true}, []int64{-1}},
		{experiments.Variant{Cores: 4, NormalizeOps: 4}, []int64{-1}},
	}
	for _, q := range evalQueueLens {
		plan = append(plan, evalVariant{experiments.Variant{Cores: 4, QueueLen: q}, []int64{-1}})
	}
	return plan
}()

// variantOptions mirrors experiments.Variant's compiler options.
func variantOptions(v experiments.Variant) core.Options {
	opt := core.DefaultOptions(v.Cores)
	opt.Speculate, opt.Throughput, opt.MultiPair = v.Speculate, v.Throughput, v.MultiPair
	opt.Schedule, opt.NormalizeOps = v.Schedule, v.NormalizeOps
	opt.Partitioner, opt.SearchBudget, opt.SearchSeed = v.Partitioner, v.SearchBudget, v.SearchSeed
	if v.QueueLen > 0 {
		mc := sim.DefaultConfig(v.Cores)
		mc.QueueLen = v.QueueLen
		opt.Machine = &mc
	}
	return opt
}

// replayed is one artifact of a replayed operation with its first run,
// kept for the cross-check and the engine re-simulation.
type replayed struct {
	loop  *ir.Loop // as given to the compiler
	opt   core.Options
	cfg   sim.Config
	b     *built
	err   error // compile or first-run failure
	res   *sim.Result
	image *mem.Memory
}

// build replays k.Build under a "kernels" span.
func build(t *tracer, k *kernels.Kernel) *ir.Loop {
	sp := t.begin("kernels")
	defer t.end(sp)
	return k.Build()
}

// replayEvalKernel replays the evaluation's work on one kernel the way the
// runner does it: one sequential baseline, one profile per distinct
// pre-lowering variant shared across core counts, every variant compiled
// once, and every simulation the figures run.
func replayEvalKernel(t *tracer, k *kernels.Kernel) []replayed {
	ctx := context.Background()
	var out []replayed
	runAll := func(rp replayed, runs []int64) replayed {
		for i, lat := range runs {
			cfg := rp.b.machine
			if lat >= 0 {
				cfg.TransferLatency = lat
			}
			res, image, err := simulate(ctx, t, rp.b.loop, rp.b.programs, cfg)
			if i == 0 {
				rp.cfg, rp.res, rp.image, rp.err = cfg, res, image, err
			}
			if err != nil {
				break
			}
		}
		return rp
	}
	seqOpt := core.DefaultOptions(1)
	seqOpt.UseProfile = false
	seq := replayed{loop: build(t, k), opt: seqOpt}
	if seq.b, seq.err = compile(ctx, t, seq.loop, seqOpt); seq.err == nil {
		seq = runAll(seq, []int64{-1})
	}
	out = append(out, seq)

	type profKey struct {
		spec      bool
		norm, qln int
	}
	type profEntry struct {
		p   profile.Profile
		err error
	}
	profs := map[profKey]profEntry{}
	for _, ev := range evalPlan {
		opt := variantOptions(ev.v)
		key := profKey{ev.v.Speculate, ev.v.NormalizeOps, ev.v.QueueLen}
		p, ok := profs[key]
		if !ok {
			p.p, p.err = computeProfile(ctx, t, build(t, k), opt)
			profs[key] = p
		}
		rp := replayed{loop: build(t, k), opt: opt, err: p.err}
		if rp.err == nil {
			withProf := opt
			withProf.Profile = p.p
			if rp.b, rp.err = compile(ctx, t, rp.loop, withProf); rp.err == nil {
				rp = runAll(rp, ev.runs)
			}
		}
		out = append(out, rp)
	}
	return out
}

// checkReplayed cross-checks every replayed artifact against the library
// and re-simulates it on every engine.
func checkReplayed(rs []replayed, rates map[string]*engineRate) error {
	for _, rp := range rs {
		if err := crossCheck(rp.loop, rp.opt, rp.cfg, rp.err, rp.res, rp.image); err != nil {
			return err
		}
		if rp.err == nil {
			if err := resimulate(rp.b.loop, rp.b.programs, rp.b.machine, rates); err != nil {
				return err
			}
		}
	}
	return nil
}

// scaledKernels is the kernel list, cut down under -scale.
func scaledKernels(scale float64) []*kernels.Kernel {
	ks := kernels.All()
	return ks[:max(1, int(math.Ceil(float64(len(ks))*scale)))]
}

func traceEvalCold(cfg runConfig) *result {
	r := &result{Workload: "eval-cold", Host: fingerprint(cfg)}
	defer r.finish()
	ks := scaledKernels(cfg.scale)
	agg, t := newLayerAgg(), newTracer()
	deadline := time.Now().Add(cfg.window())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := ks[i%len(ks)]
		r.Attempted++
		var rs []replayed
		from, m, _ := agg.replayOp(t, func(tr *tracer) error {
			got := replayEvalKernel(tr, k)
			if tr != nil {
				rs = got
			}
			return nil
		})
		agg.addOp(t, from, m, m.traced)
		if err := checkReplayed(rs, agg.rates); err != nil {
			r.fail("%s: %v", k.Name, err)
		}
	}
	r.note("an operation is one kernel's share of the evaluation (%d kernels in rotation)", len(ks))
	return finishTrace(r, cfg, agg, t)
}

// finishTrace emits the per-layer metrics and writes the spans.
func finishTrace(r *result, cfg runConfig, agg *layerAgg, t *tracer) *result {
	agg.emit(r)
	if cfg.traceOut != "" {
		if err := writeTraceFile(cfg.traceOut, t.spans); err != nil {
			r.fail("writing %s: %v", cfg.traceOut, err)
		}
	}
	return r
}
